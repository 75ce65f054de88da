//! Per-layer attribution from the events a tuning call emitted.
//!
//! Span IDs restart at 1 in every run, so a recording that holds several
//! runs is first cut at each `RunStart`; span trees are then rebuilt per
//! segment. A span's interval is `[end − duration, end]`, with `end` the
//! moment its `SpanEnd` was received: the tuner emits some `SpanStart`
//! events only after the span's work (classify, checkpoint), so receipt
//! of the start is not a usable start time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use obs::Event;

use crate::probe::Stamped;

/// Cuts `events` before every `RunStart`. Events ahead of the first
/// `RunStart` (a resumed run emits none) form a segment of their own.
pub fn segment_runs(events: &[Stamped]) -> Vec<&[Stamped]> {
    let mut cuts: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.event, Event::RunStart { .. }))
        .map(|(i, _)| i)
        .collect();
    if cuts.first() != Some(&0) {
        cuts.insert(0, 0);
    }
    cuts.push(events.len());
    cuts.windows(2)
        .map(|w| &events[w[0]..w[1]])
        .filter(|s| !s.is_empty())
        .collect()
}

/// A closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span ID, unique within its run.
    pub id: u64,
    /// Parent span ID.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Start of its interval.
    pub start: Instant,
    /// End of its interval.
    pub end: Instant,
}

impl Span {
    /// The span's length in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// The closed spans of one run segment, in closing order. Spans that
/// never closed are left out.
pub fn spans(segment: &[Stamped]) -> Vec<Span> {
    let mut parents: BTreeMap<u64, Option<u64>> = BTreeMap::new();
    let mut out = Vec::new();
    for s in segment {
        match &s.event {
            Event::SpanStart { id, parent, .. } => {
                parents.insert(*id, *parent);
            }
            Event::SpanEnd {
                id,
                name,
                duration_s,
            } => out.push(Span {
                id: *id,
                parent: parents.get(id).copied().flatten(),
                name: name.clone(),
                start: s
                    .at
                    .checked_sub(Duration::from_secs_f64(duration_s.max(0.0)))
                    .unwrap_or(s.at),
                end: s.at,
            }),
            _ => {}
        }
    }
    out
}

/// A span's self time: its length minus the part of its interval that
/// the union of its children's intervals covers. Children running in
/// parallel are counted once.
pub fn self_time_s(span: &Span, children: &[&Span]) -> f64 {
    let mut parts: Vec<(Instant, Instant)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(a, b)| a < b)
        .collect();
    parts.sort();
    let mut covered = Duration::ZERO;
    let mut reach: Option<Instant> = None;
    for (a, b) in parts {
        let from = reach.map_or(a, |r| r.max(a));
        if b > from {
            covered += b - from;
        }
        reach = Some(reach.map_or(b, |r| r.max(b)));
    }
    (span.duration_s() - covered.as_secs_f64()).max(0.0)
}

/// Layer times and counts read from the events of tuning calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    /// Seconds in `gp_fit` spans.
    pub fit_s: f64,
    /// `GpFit` events (one per objective per iteration).
    pub fits: u64,
    /// Of those, hyper-parameter searches.
    pub refits: u64,
    /// Objective evaluations of the hyper-parameter searches.
    pub fit_evals: u64,
    /// Seconds predicting uncertainty boxes (`IterationEnd.predict_s`).
    pub predict_s: f64,
    /// Seconds in `classify` spans.
    pub classify_s: f64,
    /// Seconds in `select` spans.
    pub select_s: f64,
    /// Self time of the `iteration` spans.
    pub iteration_self_s: f64,
    /// Closed `iteration` spans.
    pub iterations: u64,
    /// Run segments.
    pub runs: u64,
    /// Events received.
    pub events: u64,
}

impl Layers {
    /// Adds another run's figures to these.
    pub fn add(&mut self, o: &Layers) {
        self.fit_s += o.fit_s;
        self.fits += o.fits;
        self.refits += o.refits;
        self.fit_evals += o.fit_evals;
        self.predict_s += o.predict_s;
        self.classify_s += o.classify_s;
        self.select_s += o.select_s;
        self.iteration_self_s += o.iteration_self_s;
        self.iterations += o.iterations;
        self.runs += o.runs;
        self.events += o.events;
    }
}

/// The layer figures of one run segment.
pub fn layers(segment: &[Stamped]) -> Layers {
    let mut l = Layers {
        runs: 1,
        events: segment.len() as u64,
        ..Layers::default()
    };
    for s in segment {
        match &s.event {
            Event::GpFit { refit, evals, .. } => {
                l.fits += 1;
                l.refits += u64::from(*refit);
                l.fit_evals += *evals as u64;
            }
            Event::IterationEnd { predict_s, .. } => l.predict_s += predict_s,
            _ => {}
        }
    }
    let spans = spans(segment);
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    for s in &spans {
        match s.name.as_str() {
            "gp_fit" => l.fit_s += s.duration_s(),
            "classify" => l.classify_s += s.duration_s(),
            "select" => l.select_s += s.duration_s(),
            "iteration" => {
                l.iterations += 1;
                let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
                l.iteration_self_s += self_time_s(s, kids);
            }
            _ => {}
        }
    }
    l
}

/// The layer figures of a recording, summed over its run segments.
pub fn summarize(events: &[Stamped]) -> Layers {
    let mut total = Layers::default();
    for segment in segment_runs(events) {
        total.add(&layers(segment));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(epoch: Instant, ms: u64) -> Instant {
        epoch + Duration::from_millis(ms)
    }

    fn stamped(at: Instant, event: Event) -> Stamped {
        Stamped { at, event }
    }

    fn run_start() -> Event {
        Event::RunStart {
            candidates: 10,
            objectives: 2,
            dim: 3,
            initial_samples: 4,
            max_iterations: 5,
            seed: 1,
        }
    }

    fn start(id: u64, parent: Option<u64>, name: &str) -> Event {
        Event::SpanStart {
            id,
            parent,
            name: name.into(),
        }
    }

    fn end(id: u64, name: &str, ms: u64) -> Event {
        Event::SpanEnd {
            id,
            name: name.into(),
            duration_s: ms as f64 / 1000.0,
        }
    }

    fn span(e: Instant, id: u64, from: u64, to: u64) -> Span {
        Span {
            id,
            parent: Some(1),
            name: "x".into(),
            start: at(e, from),
            end: at(e, to),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let e = Instant::now();
        let parent = Span {
            parent: None,
            ..span(e, 1, 0, 100)
        };
        let a = span(e, 2, 10, 30);
        let b = span(e, 3, 20, 40); // overlaps a: 10..40 covered once
        let c = span(e, 4, 90, 120); // sticks out: only 90..100 counts
        let self_s = self_time_s(&parent, &[&a, &b, &c]);
        assert!((self_s - 0.060).abs() < 1e-9, "{self_s}");
        assert!((self_time_s(&parent, &[]) - 0.1).abs() < 1e-9);
        let nested = span(e, 5, 12, 18); // inside a: no extra cover
        assert!((self_time_s(&parent, &[&a, &nested]) - 0.080).abs() < 1e-9);
    }

    #[test]
    fn segments_cut_at_every_run_start() {
        let e = Instant::now();
        let ev = |ms, event| stamped(at(e, ms), event);
        let events = vec![
            ev(0, start(9, None, "run")), // a resumed run's tail: no RunStart
            ev(1, run_start()),
            ev(2, start(1, None, "run")),
            ev(3, run_start()),
            ev(4, start(1, None, "run")),
            ev(5, end(1, "run", 1)),
        ];
        let segs = segment_runs(&events);
        assert_eq!(segs.iter().map(|s| s.len()).collect::<Vec<_>>(), [1, 2, 3]);
        assert!(segment_runs(&[]).is_empty());
        assert_eq!(segment_runs(&events[1..]).len(), 2);
    }

    #[test]
    fn layers_reuse_span_ids_per_segment() {
        // Two runs both number their spans from 1; summarizing them in
        // one recording must not mix their trees.
        let e = Instant::now();
        let mut events = Vec::new();
        for base in [0, 1000] {
            let ev = |ms: u64, event| stamped(at(e, base + ms), event);
            events.push(ev(0, run_start()));
            events.push(ev(0, start(1, None, "run")));
            events.push(ev(0, start(2, Some(1), "iteration")));
            events.push(ev(1, start(3, Some(2), "gp_fit")));
            events.push(ev(40, end(3, "gp_fit", 39)));
            events.push(ev(50, start(4, Some(2), "classify")));
            events.push(ev(50, end(4, "classify", 10)));
            events.push(ev(100, end(2, "iteration", 100)));
            events.push(ev(100, end(1, "run", 100)));
        }
        let l = summarize(&events);
        assert_eq!((l.runs, l.iterations, l.events), (2, 2, 18));
        assert!((l.fit_s - 0.078).abs() < 1e-9);
        assert!((l.classify_s - 0.020).abs() < 1e-9);
        // Each iteration: 100 ms minus 39 ms fit minus 10 ms classify.
        assert!(
            (l.iteration_self_s - 0.102).abs() < 1e-9,
            "{}",
            l.iteration_self_s
        );
    }
}
