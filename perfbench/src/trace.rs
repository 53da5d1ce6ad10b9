//! In-memory span recorder for the traced run.
//!
//! Each call group the traced replay makes into a layer is one span:
//! name, start, end, parent, and the timed iteration it belongs to.
//! Spans stay in memory while the replay runs and are written out once
//! at exit. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover; children may nest further and may
//! overlap each other (runner threads), so coverage is an interval union.

use scp_json::Json;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id: the recorder in the high half, its local index below.
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// The layer call this span covers, e.g. `cache.request`.
    pub name: &'static str,
    /// The timed iteration the span belongs to (one id per iteration).
    pub iteration: u32,
    /// Start, in ns since the trace epoch.
    pub start_ns: u64,
    /// End, in ns since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one thread against a shared epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    recorder: u64,
    spans: Vec<Span>,
}

/// Recorders created so far; each gets its own id range.
static RECORDERS: AtomicU32 = AtomicU32::new(0);

impl Tracer {
    /// A recorder for one thread; every recorder of one run shares `epoch`.
    pub fn new(epoch: Instant) -> Self {
        // ORDERING: Relaxed — the counter only hands out distinct ids and
        // publishes no other data.
        let recorder = RECORDERS.fetch_add(1, Ordering::Relaxed);
        Self {
            epoch,
            recorder: u64::from(recorder) << 32,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, iteration: u32) -> u64 {
        let id = self.recorder | self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            iteration,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a span this recorder opened.
    pub fn close(&mut self, id: u64) {
        let end = self.now_ns();
        let local = (id & u64::from(u32::MAX)) as usize;
        if let Some(span) = self.spans.get_mut(local) {
            span.end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        iteration: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, iteration);
        let out = f();
        self.close(id);
        out
    }

    /// Hands over the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + run.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, by id: its duration minus the part of its
/// interval covered by the union of its direct children.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let kids = children.remove(&span.id).unwrap_or_default();
            let cover = covered(kids, span.start_ns, span.end_ns);
            (span.id, span.duration_ns().saturating_sub(cover))
        })
        .collect()
}

/// Per-layer totals: `(Σ duration, Σ self time, span count)` by name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selves = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for span in spans {
        let entry = out.entry(span.name).or_default();
        entry.0 += span.duration_ns();
        entry.1 += selves.get(&span.id).copied().unwrap_or(0);
        entry.2 += 1;
    }
    out
}

/// Writes a traced run's spans, with per-layer totals, under the
/// benchmark's `out/` directory; returns the file path. Spans are
/// streamed one JSON object per line inside the `spans` array, so a large
/// trace is never held twice in memory. Ids are decimal strings: they
/// exceed 2^53.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    let layers = Json::Obj(
        layer_totals(spans)
            .into_iter()
            .map(|(name, (total, own, count))| {
                (
                    name.to_owned(),
                    Json::obj([
                        ("spans", Json::Num(count as f64)),
                        ("total_ns", Json::Num(total as f64)),
                        ("self_ns", Json::Num(own as f64)),
                    ]),
                )
            })
            .collect(),
    );
    let mut file = BufWriter::new(std::fs::File::create(&path)?);
    write!(
        file,
        "{{\"workload\":{},\"seed\":\"{seed}\",\"layers\":{layers},\"spans\":[",
        Json::Str(workload.to_owned())
    )?;
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or("null".to_owned(), |p| format!("\"{p}\""));
        write!(
            file,
            "{}\n{{\"id\":\"{}\",\"parent\":{parent},\"name\":{},\"iteration\":{},\
             \"start_ns\":{},\"end_ns\":{}}}",
            if i == 0 { "" } else { "," },
            span.id,
            Json::Str(span.name.to_owned()),
            span.iteration,
            span.start_ns,
            span.end_ns
        )?;
    }
    writeln!(file, "\n]}}")?;
    file.flush()?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            iteration: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,60).
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(4, Some(1), 50, 60),
        ];
        let selves = self_times(&spans);
        assert_eq!(selves[&1], 100 - 30 - 10);
        assert_eq!(selves[&2], 30 - 10);
        assert_eq!(selves[&3], 10);
        assert_eq!(selves[&4], 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two runner threads' children overlap on [30,40).
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 70),
            span(4, Some(1), 30, 35),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 60);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(1, None, 50, 100),
            span(2, Some(1), 0, 60),
            span(3, Some(1), 90, 200),
        ];
        assert_eq!(self_times(&spans)[&1], 50 - 10 - 10);
    }

    #[test]
    fn written_spans_parse_back() {
        let spans = [span(1, None, 0, 100), span(u64::MAX, Some(1), 10, 40)];
        let path = write_spans("unit-test", 7, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        let parsed = doc.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(parsed.len(), 2);
        let max = u64::MAX.to_string();
        assert_eq!(
            parsed[1].get("id").and_then(Json::as_str),
            Some(max.as_str())
        );
        assert_eq!(parsed[1].get("parent").and_then(Json::as_str), Some("1"));
        let own = doc
            .get("layers")
            .and_then(|l| l.get("s"))
            .and_then(|l| l.get("self_ns"))
            .and_then(Json::as_f64);
        assert_eq!(own, Some(70.0 + 30.0));
    }

    #[test]
    fn layer_totals_sum_by_name() {
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.open("root", None, 7);
        tracer.span("leaf", Some(root), 7, || std::hint::black_box(1 + 1));
        tracer.span("leaf", Some(root), 7, || ());
        tracer.close(root);
        let spans = tracer.into_spans();
        let other = Tracer::new(Instant::now()).open("x", None, 0);
        assert_ne!(
            other >> 32,
            spans[0].id >> 32,
            "recorders share an id range"
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let totals = layer_totals(&spans);
        assert_eq!(totals["leaf"].2, 2);
        assert_eq!(totals["leaf"].0, totals["leaf"].1);
        let (root_dur, root_self, _) = totals["root"];
        assert_eq!(root_self, root_dur - totals["leaf"].0);
    }
}
