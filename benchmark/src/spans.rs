//! The benchmark's own span recorder: spans are opened around calls into
//! the crates (never inside them), kept in memory, and written out as a
//! Chrome trace-event file when the run ends. A layer's self time is its
//! spans' duration minus the part their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `memctl.run_channel`.
    pub name: &'static str,
    /// What the call worked on (an app, a shape); may be empty.
    pub detail: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// Which recorded pass of the workload the span belongs to; 0 for
    /// spans outside the passes (set-up, isolated layer drives).
    pub rep: u32,
}

/// Per-name totals over a recording.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: usize,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration not covered by child spans, ns.
    pub self_ns: u64,
}

/// In-memory span recorder. Disabled, [`Recorder::span`] only calls its
/// closure.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Id of the pass being recorded, 0 outside passes.
    rep: u32,
    /// Passes recorded so far.
    reps: u32,
}

impl Recorder {
    /// A recorder that records (`enabled`) or passes calls through.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            reps: 0,
        }
    }

    /// Turns recording on or off between reps.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggling the recorder inside a span");
        self.enabled = enabled;
    }

    /// Starts the next recorded pass: later spans carry its id.
    pub fn next_rep(&mut self) {
        self.reps += 1;
        self.rep = self.reps;
    }

    /// Ends the passes: later spans (isolated layer drives) belong to none.
    pub fn end_reps(&mut self) {
        self.rep = 0;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        detail: &str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            detail: detail.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Summed seconds of the spans called `name` (and, when given,
    /// carrying `detail`).
    pub fn total_s(&self, name: &str, detail: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Totals and self times per span name over the recorded passes,
    /// largest self time first.
    pub fn self_times(&self) -> Vec<SelfTime> {
        self_times(&self.spans)
    }

    /// The recording in Chrome trace-event format (`chrome://tracing`,
    /// Perfetto): one complete (`"ph": "X"`) event per span, times in µs.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"detail\": \"{}\", \
                     \"rep\": {}, \"parent\": {}}}}}",
                    s.name,
                    layer_of(s.name),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.detail,
                    s.rep,
                    s.parent.map_or("null".to_string(), |p| format!("\"{}\"", self.spans[p].name)),
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// The layer (crate) a span or metric name belongs to: the part before
/// the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per span name over the spans of recorded passes (`rep` ≥ 1):
/// each span's duration minus the union of its children's intervals
/// (clipped to the span, so overlapping or overhanging children are never
/// counted twice).
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.rep >= 1) {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&i) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let dur = s.end_ns - s.start_ns;
        let e = by_name.entry(s.name).or_insert(SelfTime {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered;
    }
    let mut out: Vec<SelfTime> = by_name.into_values().collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, detail: String::new(), start_ns: start, end_ns: end, parent, rep: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span("a.root", 0, 100, None),
            span("b.kid", 10, 30, Some(0)),
            span("b.kid", 40, 70, Some(0)),
            span("c.grandkid", 45, 50, Some(2)),
        ];
        let st = self_times(&spans);
        let get = |n: &str| st.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(get("a.root").self_ns, 50);
        assert_eq!(get("a.root").total_ns, 100);
        assert_eq!(get("b.kid").count, 2);
        assert_eq!(get("b.kid").total_ns, 50);
        assert_eq!(get("b.kid").self_ns, 45);
        assert_eq!(get("c.grandkid").self_ns, 5);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(st.iter().map(|s| s.self_ns).sum::<u64>(), 100);
        // Largest self time first.
        assert_eq!(st[0].name, "a.root");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("a.root", 10, 50, None),
            span("b.kid", 0, 30, Some(0)),
            span("b.kid", 20, 60, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st.iter().find(|s| s.name == "a.root").unwrap().self_ns, 0);
    }

    #[test]
    fn recorder_nests_spans_and_skips_them_when_disabled() {
        let mut rec = Recorder::new(true);
        rec.next_rep();
        let v = rec.span("a.outer", "x", |rec| rec.span("b.inner", "", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[0].parent, None);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        assert!(rec.total_s("a.outer", Some("x")) >= rec.total_s("b.inner", None));
        assert_eq!(rec.total_s("a.outer", Some("y")), 0.0);
        assert!(rec.to_chrome_json().contains("\"parent\": \"a.outer\""));

        rec.set_enabled(false);
        assert_eq!(rec.span("a.outer", "", |_| 1), 1);
        assert_eq!(rec.spans.len(), 2);
    }

    #[test]
    fn only_recorded_passes_count_towards_self_time() {
        let mut rec = Recorder::new(true);
        rec.span("a.setup", "", |_| ());
        rec.next_rep();
        rec.span("b.pass", "", |_| ());
        rec.end_reps();
        rec.span("c.drive", "", |_| ());
        let names: Vec<&str> = rec.self_times().iter().map(|t| t.name).collect();
        assert_eq!(names, ["b.pass"]);
        assert_eq!(rec.spans.iter().map(|s| s.rep).collect::<Vec<_>>(), [0, 1, 0]);
    }

    #[test]
    fn layer_is_the_name_before_the_dot() {
        assert_eq!(layer_of("memctl.run_channel"), "memctl");
        assert_eq!(layer_of("plain"), "plain");
    }
}
