//! Aggregated telemetry snapshots: JSON export and the flame-style dump.
//!
//! A [`TelemetryReport`] is what [`Session::finish`](crate::Session::finish)
//! and [`live_report`](crate::live_report) return: every closed root's
//! call tree merged by span path (wall times and counters summed, instance
//! counts kept) by the one merge every closed root goes through,
//! [`merge_into`], every registered counter's total over that tree —
//! zeros included — and every registered histogram. The JSON schema is
//! versioned and strict: [`TelemetryReport::from_json`] rejects a report
//! that is missing any *registered* counter or histogram name, which is
//! the schema-drift guard CI leans on (see `docs/observability.md`).

use crate::counters::{self, Hist, COUNTER_NAMES, HIST_NAMES};
use crate::memprof;
use crate::spans::{Aggregate, Node};
use mc3_core::json::Json;
use mc3_core::u32_of;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema version emitted in the JSON `version` field. Version 2 added
/// the per-span `mem` object and the report-level `peak_live_bytes` /
/// `peak_rss_bytes` fields (the memprof axis).
pub const REPORT_VERSION: u64 = 2;

/// Aggregated memory tally of one span node (inclusive of children, like
/// `wall_ns`). All counts cover only the time a session gate was open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanMem {
    /// Heap allocations across all merged instances.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Heap frees across all merged instances.
    pub frees: u64,
    /// Bytes released by those frees.
    pub free_bytes: u64,
    /// Maximum over merged instances of the span's net-live high-water
    /// mark (bytes), relative to its own open.
    pub peak_live_bytes: u64,
    /// Minimum allocation count over merged instances — the steady-state
    /// signal: a kernel whose warm instances are allocation-free reads 0
    /// here even when its first instance grew buffers. Every aggregated
    /// node holds at least one closed instance (`count ≥ 1`), so this is
    /// always one real instance's count.
    pub min_instance_allocs: u64,
}

impl SpanMem {
    /// The identity of [`fold`](Self::fold): no instance yet.
    pub(crate) const EMPTY: SpanMem = SpanMem {
        allocs: 0,
        alloc_bytes: 0,
        frees: 0,
        free_bytes: 0,
        peak_live_bytes: 0,
        min_instance_allocs: u64::MAX,
    };

    /// Folds `other` (one instance, or a node of many) into `self`:
    /// counts and bytes sum, the peak takes the max and the steady-state
    /// `min_instance_allocs` the min.
    pub(crate) fn fold(&mut self, other: &SpanMem) {
        self.allocs = self.allocs.saturating_add(other.allocs);
        self.alloc_bytes = self.alloc_bytes.saturating_add(other.alloc_bytes);
        self.frees = self.frees.saturating_add(other.frees);
        self.free_bytes = self.free_bytes.saturating_add(other.free_bytes);
        self.peak_live_bytes = self.peak_live_bytes.max(other.peak_live_bytes);
        self.min_instance_allocs = self.min_instance_allocs.min(other.min_instance_allocs);
    }
}

/// One aggregated span node: all same-name siblings merged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanData {
    /// Span name (see the taxonomy in `docs/observability.md`).
    pub name: String,
    /// Total wall time across all merged instances, in nanoseconds.
    pub wall_ns: u64,
    /// Number of raw span instances merged into this node.
    pub count: u64,
    /// Counter increments attributed to this span (wire name → total).
    pub counters: BTreeMap<String, u64>,
    /// Memory attribution across all merged instances.
    pub mem: SpanMem,
    /// Aggregated children, in first-seen order.
    pub children: Vec<SpanData>,
}

/// Snapshot of one log2 histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramData {
    /// Histogram wire name.
    pub name: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Non-empty buckets as `(bucket index, observation count)` pairs,
    /// bucket semantics per [`counters::bucket_bounds`].
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramData {
    /// Inclusive upper value bound of log2 bucket `idx`: `0` for bucket 0,
    /// `2^idx − 1` for buckets `1..64`, and `u64::MAX` for the last bucket
    /// **and any out-of-range index** — exporters iterate reconstructed
    /// bucket indices from parsed reports, so an index past the registry's
    /// [`counters::HIST_BUCKETS`] saturates instead of panicking.
    pub fn bucket_bound(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else if idx >= crate::HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        }
    }
}

/// A full telemetry snapshot for one recording session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Aggregated span roots, in first-seen order.
    pub spans: Vec<SpanData>,
    /// Every registered counter (zeros included).
    pub counters: BTreeMap<String, u64>,
    /// Every registered histogram (empty ones included).
    pub histograms: Vec<HistogramData>,
    /// Largest `mem.peak_live_bytes` among the top-level span nodes: the
    /// live-byte high-water mark of the span root that held the most
    /// (0 when no root allocated).
    pub peak_live_bytes: u64,
    /// Peak resident set size of the process in bytes (`VmHWM` from
    /// `/proc/self/status`); `None` where the platform offers no
    /// readable measurement — serialized as JSON `null`, distinct from a
    /// measured zero.
    pub peak_rss_bytes: Option<u64>,
}

/// The sibling named `name`, appended empty when absent.
fn slot<'a>(siblings: &'a mut Vec<SpanData>, name: &str) -> Option<&'a mut SpanData> {
    match siblings.iter().position(|s| s.name == name) {
        Some(i) => siblings.get_mut(i),
        None => {
            siblings.push(SpanData {
                name: name.to_owned(),
                mem: SpanMem::EMPTY,
                ..SpanData::default()
            });
            siblings.last_mut()
        }
    }
}

/// Merges the call-tree sibling chain starting at node `link` of `tree`
/// into `siblings`, by name and recursively: wall times, counts and
/// counters sum, and memory tallies go through [`SpanMem::fold`]. This is
/// the one merge every closed root goes through. A chain runs newest
/// sibling first, so its tail merges before its head and the report
/// keeps first-seen order.
pub(crate) fn merge_into(siblings: &mut Vec<SpanData>, tree: &[Node], link: u32) {
    let Some(node) = tree.get(link as usize) else {
        return;
    };
    merge_into(siblings, tree, node.next_sibling);
    let Some(slot) = slot(siblings, node.name) else {
        return;
    };
    slot.wall_ns = slot.wall_ns.saturating_add(node.wall_ns);
    slot.count += node.count;
    for (i, (&name, &v)) in COUNTER_NAMES.iter().zip(&node.counters).enumerate() {
        if node.touched & (1 << i) == 0 {
            continue;
        }
        match slot.counters.get_mut(name) {
            Some(cell) => *cell = cell.saturating_add(v),
            None => {
                slot.counters.insert(name.to_owned(), v);
            }
        }
    }
    slot.mem.fold(&node.mem);
    merge_into(&mut slot.children, tree, node.first_child);
}

/// Adds every counter of `spans` and their descendants into `totals`.
fn sum_counters(spans: &[SpanData], totals: &mut BTreeMap<String, u64>) {
    for s in spans {
        for (name, &v) in &s.counters {
            if let Some(total) = totals.get_mut(name) {
                *total = total.saturating_add(v);
            }
        }
        sum_counters(&s.children, totals);
    }
}

/// The report of an aggregate: every registered counter's total is its
/// sum over the span tree, and the live-byte peak is read off the roots.
pub(crate) fn assemble(Aggregate { roots, hists }: Aggregate) -> TelemetryReport {
    let mut counters: BTreeMap<String, u64> =
        COUNTER_NAMES.iter().map(|&n| (n.to_owned(), 0)).collect();
    sum_counters(&roots, &mut counters);
    TelemetryReport {
        peak_live_bytes: roots
            .iter()
            .map(|s| s.mem.peak_live_bytes)
            .max()
            .unwrap_or(0),
        spans: roots,
        counters,
        histograms: Hist::ALL
            .iter()
            .map(|&h| {
                let (count, sum, buckets) = counters::hist_row(&hists, h);
                HistogramData {
                    name: h.name().to_owned(),
                    count,
                    sum,
                    buckets,
                }
            })
            .collect(),
        peak_rss_bytes: memprof::peak_rss_bytes(),
    }
}

/// `v[key]` as a `u64`; the error names `owner` (`report`, `span 'x'`, …).
fn u64_field(v: &Json, key: &str, owner: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{owner} missing u64 '{key}'"))
}

/// `v[key]` as an array, each item parsed by `item`.
fn array_field<T>(
    v: &Json,
    key: &str,
    owner: &str,
    item: impl FnMut(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match v.get(key) {
        Some(Json::Array(items)) => items.iter().map(item).collect(),
        _ => Err(format!("{owner} missing array '{key}'")),
    }
}

fn counters_to_json(counters: &BTreeMap<String, u64>) -> Json {
    Json::Object(
        counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Int(v as i128)))
            .collect(),
    )
}

/// `v["counters"]`: wire name → total.
fn counters_field(v: &Json, owner: &str) -> Result<BTreeMap<String, u64>, String> {
    let Some(Json::Object(map)) = v.get("counters") else {
        return Err(format!("{owner} missing object 'counters'"));
    };
    map.iter()
        .map(|(k, val)| {
            val.as_u64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("{owner} counter '{k}' is not a u64"))
        })
        .collect()
}

fn mem_to_json(m: &SpanMem) -> Json {
    Json::object([
        ("allocs", Json::Int(m.allocs as i128)),
        ("alloc_bytes", Json::Int(m.alloc_bytes as i128)),
        ("frees", Json::Int(m.frees as i128)),
        ("free_bytes", Json::Int(m.free_bytes as i128)),
        ("peak_live_bytes", Json::Int(m.peak_live_bytes as i128)),
        (
            "min_instance_allocs",
            Json::Int(m.min_instance_allocs as i128),
        ),
    ])
}

/// `v["mem"]` of the span `owner` names.
fn mem_field(v: &Json, owner: &str) -> Result<SpanMem, String> {
    let Some(m @ Json::Object(_)) = v.get("mem") else {
        return Err(format!("{owner} missing object 'mem'"));
    };
    let owner = format!("{owner} mem");
    let field = |key: &str| u64_field(m, key, &owner);
    Ok(SpanMem {
        allocs: field("allocs")?,
        alloc_bytes: field("alloc_bytes")?,
        frees: field("frees")?,
        free_bytes: field("free_bytes")?,
        peak_live_bytes: field("peak_live_bytes")?,
        min_instance_allocs: field("min_instance_allocs")?,
    })
}

fn span_to_json(s: &SpanData) -> Json {
    Json::object([
        ("name", Json::Str(s.name.clone())),
        ("wall_ns", Json::Int(s.wall_ns as i128)),
        ("count", Json::Int(s.count as i128)),
        ("counters", counters_to_json(&s.counters)),
        ("mem", mem_to_json(&s.mem)),
        (
            "children",
            Json::Array(s.children.iter().map(span_to_json).collect()),
        ),
    ])
}

fn span_from_json(v: &Json) -> Result<SpanData, String> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or("span missing string 'name'")?
        .to_owned();
    let owner = format!("span '{name}'");
    Ok(SpanData {
        wall_ns: u64_field(v, "wall_ns", &owner)?,
        count: u64_field(v, "count", &owner)?,
        counters: counters_field(v, &owner)?,
        mem: mem_field(v, &owner)?,
        children: array_field(v, "children", &owner, span_from_json)?,
        name,
    })
}

fn hist_to_json(h: &HistogramData) -> Json {
    Json::object([
        ("name", Json::Str(h.name.clone())),
        ("count", Json::Int(h.count as i128)),
        ("sum", Json::Int(h.sum as i128)),
        (
            "buckets",
            Json::Array(
                h.buckets
                    .iter()
                    .map(|&(i, c)| Json::Array(vec![Json::Int(i as i128), Json::Int(c as i128)]))
                    .collect(),
            ),
        ),
    ])
}

fn hist_from_json(v: &Json) -> Result<HistogramData, String> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or("histogram missing string 'name'")?
        .to_owned();
    let owner = format!("histogram '{name}'");
    let bucket = |item: &Json| {
        let pair = item
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{owner} bucket is not a pair"))?;
        let idx = pair
            .first()
            .and_then(Json::as_u64)
            .filter(|&i| i < counters::HIST_BUCKETS as u64)
            .ok_or_else(|| format!("{owner} bucket index invalid"))?;
        let c = pair
            .get(1)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{owner} bucket count invalid"))?;
        Ok((u32_of(idx), c))
    };
    Ok(HistogramData {
        count: u64_field(v, "count", &owner)?,
        sum: u64_field(v, "sum", &owner)?,
        buckets: array_field(v, "buckets", &owner, bucket)?,
        name,
    })
}

/// Renders a nanosecond duration adaptively (`ns`, `µs`, `ms` or `s`).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders a byte count adaptively (`B`, `KiB`, `MiB` or `GiB`).
fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// ` 12.5%`: `part`'s share of its parent's `whole`; empty for a root or
/// an empty parent.
fn share(part: u64, whole: Option<u64>) -> String {
    match whole {
        Some(w) if w > 0 => format!(" {:5.1}%", 100.0 * part as f64 / w as f64),
        _ => String::new(),
    }
}

/// ` ×n` for a node merged from more than one instance.
fn times(count: u64) -> String {
    if count > 1 {
        format!(" ×{count}")
    } else {
        String::new()
    }
}

/// The one flame-tree walk: one line per span, its tree prefix and
/// connector, its name, then `text(node, parent)`. `last`: `None` for a
/// root (no connector), else whether this node is its parent's last child.
fn render_tree(
    out: &mut String,
    node: &SpanData,
    parent: Option<&SpanData>,
    prefix: &str,
    last: Option<bool>,
    text: &dyn Fn(&SpanData, Option<&SpanData>) -> String,
) {
    let connector = match last {
        None => "",
        Some(true) => "└─ ",
        Some(false) => "├─ ",
    };
    let _ = writeln!(
        out,
        "{prefix}{connector}{} {}",
        node.name,
        text(node, parent)
    );
    let child_prefix = match last {
        None => String::new(),
        Some(true) => format!("{prefix}   "),
        Some(false) => format!("{prefix}│  "),
    };
    let n = node.children.len();
    for (i, child) in node.children.iter().enumerate() {
        render_tree(
            out,
            child,
            Some(node),
            &child_prefix,
            Some(i + 1 == n),
            text,
        );
    }
}

/// Wall-time line text: the time, its share of the parent's and the
/// attributed counters.
fn wall_text(node: &SpanData, parent: Option<&SpanData>) -> String {
    let mut line = format!(
        "{}{}{}",
        fmt_ns(node.wall_ns),
        share(node.wall_ns, parent.map(|p| p.wall_ns)),
        times(node.count)
    );
    if !node.counters.is_empty() {
        let inline: Vec<String> = node
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = write!(line, "  [{}]", inline.join(" "));
    }
    line
}

/// Memory-axis line text: bytes allocated and their share of the
/// parent's, allocation/free counts and the per-span live peak.
fn mem_text(node: &SpanData, parent: Option<&SpanData>) -> String {
    let mut line = format!(
        "{}{}{}  [allocs={} frees={} peak={}",
        fmt_bytes(node.mem.alloc_bytes),
        share(node.mem.alloc_bytes, parent.map(|p| p.mem.alloc_bytes)),
        times(node.count),
        node.mem.allocs,
        node.mem.frees,
        fmt_bytes(node.mem.peak_live_bytes),
    );
    if node.count > 1 {
        let _ = write!(line, " min/inst={}", node.mem.min_instance_allocs);
    }
    line.push(']');
    line
}

impl TelemetryReport {
    /// Serializes to the versioned JSON schema (see `docs/observability.md`).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("version", Json::Int(REPORT_VERSION as i128)),
            (
                "spans",
                Json::Array(self.spans.iter().map(span_to_json).collect()),
            ),
            ("counters", counters_to_json(&self.counters)),
            (
                "histograms",
                Json::Array(self.histograms.iter().map(hist_to_json).collect()),
            ),
            ("peak_live_bytes", Json::Int(self.peak_live_bytes as i128)),
            ("peak_rss_bytes", Json::opt_u64(self.peak_rss_bytes)),
        ])
    }

    /// Parses a report back from JSON. **Strict**: fails if the version is
    /// unknown, any field is malformed, or any *registered* counter or
    /// histogram name is absent — absence means the emitting binary and
    /// this binary disagree about the registry (schema drift).
    pub fn from_json(v: &Json) -> Result<TelemetryReport, String> {
        let version = u64_field(v, "version", "report")?;
        if version != REPORT_VERSION {
            return Err(format!(
                "unsupported telemetry report version {version} (expected {REPORT_VERSION})"
            ));
        }
        let spans = array_field(v, "spans", "report", span_from_json)?;
        let counters = counters_field(v, "report")?;
        for name in COUNTER_NAMES {
            if !counters.contains_key(*name) {
                return Err(format!(
                    "registered counter '{name}' absent from report (schema drift)"
                ));
            }
        }
        let histograms = array_field(v, "histograms", "report", hist_from_json)?;
        for name in HIST_NAMES {
            if !histograms.iter().any(|h| h.name == *name) {
                return Err(format!(
                    "registered histogram '{name}' absent from report (schema drift)"
                ));
            }
        }
        let peak_live_bytes = u64_field(v, "peak_live_bytes", "report")?;
        // Strict about presence, permissive about measurement: the key
        // must exist (schema drift guard) but `null` means "not measured"
        // on platforms without a readable RSS high-water mark.
        let peak_rss_bytes = match v.get("peak_rss_bytes") {
            Some(Json::Null) => None,
            Some(val) => Some(
                val.as_u64()
                    .ok_or("report field 'peak_rss_bytes' is neither u64 nor null")?,
            ),
            None => return Err("report missing field 'peak_rss_bytes'".to_owned()),
        };
        Ok(TelemetryReport {
            spans,
            counters,
            histograms,
            peak_live_bytes,
            peak_rss_bytes,
        })
    }

    /// Counters with non-zero totals, largest first.
    pub fn top_counters(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self
            .counters
            .iter()
            .filter(|&(_, &n)| n > 0)
            .map(|(k, &n)| (k.as_str(), n))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Every root's flame tree, with `text` as each line's body.
    fn render_spans(&self, text: &dyn Fn(&SpanData, Option<&SpanData>) -> String) -> String {
        let mut out = String::new();
        if self.spans.is_empty() {
            let _ = writeln!(out, "(no spans recorded)");
        }
        for root in &self.spans {
            render_tree(&mut out, root, None, "", None, text);
        }
        out
    }

    /// Flame-style tree dump plus top counters and histograms — the body
    /// of `mc3 profile` and `mc3 solve --trace` output.
    pub fn render(&self) -> String {
        self.render_top(usize::MAX)
    }

    /// [`render`](Self::render) with the counter listing truncated to the
    /// `limit` largest entries (`mc3 profile --top N`).
    pub fn render_top(&self, limit: usize) -> String {
        let mut out = self.render_spans(&wall_text);
        let mut top = self.top_counters();
        let omitted = top.len().saturating_sub(limit);
        top.truncate(limit);
        if !top.is_empty() {
            let _ = writeln!(out, "\ncounters (non-zero, largest first):");
            let width = top.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (name, n) in top {
                let _ = writeln!(out, "  {name:width$}  {n}");
            }
            if omitted > 0 {
                let _ = writeln!(out, "  … {omitted} more");
            }
        }
        for h in &self.histograms {
            if h.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "\nhistogram {} (n={}, sum={}):",
                h.name, h.count, h.sum
            );
            for &(b, c) in &h.buckets {
                let (lo, hi) = counters::bucket_bounds(b as usize);
                let label = if lo == hi {
                    format!("{lo}")
                } else {
                    format!("{lo}..={hi}")
                };
                let _ = writeln!(out, "  {label:>12}  {c}");
            }
        }
        out
    }

    /// Memory-axis flame dump — the body of `mc3 profile --mem`: bytes
    /// and allocation counts per span, their sum over the roots, the
    /// largest root's live-bytes peak and the process RSS high-water mark.
    pub fn render_mem(&self) -> String {
        let mut out = self.render_spans(&mem_text);
        let allocs: u64 = self.spans.iter().map(|s| s.mem.allocs).sum();
        let bytes: u64 = self.spans.iter().map(|s| s.mem.alloc_bytes).sum();
        let _ = writeln!(out, "\ntotal: {} in {allocs} allocations", fmt_bytes(bytes));
        let _ = writeln!(
            out,
            "peak live bytes (largest span root): {}",
            fmt_bytes(self.peak_live_bytes)
        );
        match self.peak_rss_bytes {
            Some(rss) => {
                let _ = writeln!(out, "peak rss (process): {}", fmt_bytes(rss));
            }
            None => {
                let _ = writeln!(out, "peak rss (process): not measured on this platform");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;

    /// One closed instance of `name` under `parent` in a call tree
    /// (`None`: the root, node 0), with figures derived from `wall`;
    /// returns its node.
    fn instance(tree: &mut Vec<Node>, parent: Option<u32>, name: &'static str, wall: u64) -> u32 {
        let i = match parent {
            Some(p) => crate::spans::find_or_add(tree, p, name),
            None => open_root(tree, name),
        };
        let node = &mut tree[i as usize];
        node.add(Counter::DinicPhases, 2);
        node.close_instance(
            wall,
            &SpanMem {
                allocs: wall / 10,
                alloc_bytes: wall,
                frees: wall / 20,
                free_bytes: wall / 2,
                peak_live_bytes: wall / 2,
                min_instance_allocs: wall / 10,
            },
        );
        i
    }

    /// The root node of `tree`, added first when the tree is empty.
    fn open_root(tree: &mut Vec<Node>, name: &'static str) -> u32 {
        if tree.is_empty() {
            tree.push(Node::new(name));
        }
        0
    }

    /// A closed root `name` with one closed child, as one call tree.
    fn root(name: &'static str, wall: u64, child: (&'static str, u64)) -> Vec<Node> {
        let mut tree = Vec::new();
        let r = open_root(&mut tree, name);
        instance(&mut tree, Some(r), child.0, child.1);
        instance(&mut tree, None, name, wall);
        tree
    }

    #[test]
    fn aggregation_merges_same_name_siblings() {
        let mut roots = Vec::new();
        merge_into(&mut roots, &root("solve", 100, ("k2.solve", 40)), 0);
        merge_into(&mut roots, &root("solve", 50, ("k2.solve", 10)), 0);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].wall_ns, 150);
        assert_eq!(roots[0].count, 2);
        assert_eq!(roots[0].counters["dinic_phases"], 4);
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].wall_ns, 50);
        assert_eq!(roots[0].children[0].count, 2);
        // Memory merges: counts/bytes sum, the peak takes the max, and
        // min_instance_allocs keeps the smallest single-instance count.
        assert_eq!(roots[0].mem.allocs, 15);
        assert_eq!(roots[0].mem.alloc_bytes, 150);
        assert_eq!(roots[0].mem.frees, 7);
        assert_eq!(roots[0].mem.peak_live_bytes, 50);
        assert_eq!(roots[0].mem.min_instance_allocs, 5);
        assert_eq!(roots[0].children[0].mem.min_instance_allocs, 1);
    }

    #[test]
    fn call_tree_folds_instances_per_path_in_first_seen_order() {
        // solve ─┬─ a ── x   (two instances of a, one x under each)
        //        └─ b
        let mut tree = Vec::new();
        let solve = open_root(&mut tree, "solve");
        for _ in 0..2 {
            let a = crate::spans::find_or_add(&mut tree, solve, "a");
            instance(&mut tree, Some(a), "x", 10);
            instance(&mut tree, Some(solve), "a", 30);
        }
        instance(&mut tree, Some(solve), "b", 20);
        instance(&mut tree, None, "solve", 100);
        assert_eq!(tree.len(), 4, "one node per path, not per instance");
        let mut roots = Vec::new();
        merge_into(&mut roots, &tree, 0);
        let names: Vec<&str> = roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(roots[0].children[0].count, 2);
        assert_eq!(roots[0].children[0].counters["dinic_phases"], 4);
        assert_eq!(roots[0].children[0].children[0].count, 2);
        assert_eq!(roots[0].children[0].children[0].wall_ns, 20);
    }

    #[test]
    fn a_zero_increment_still_names_its_counter() {
        let mut tree = Vec::new();
        let r = open_root(&mut tree, "solve");
        tree[r as usize].add(Counter::LpPivots, 0);
        tree[r as usize].close_instance(1, &SpanMem::default());
        let mut roots = Vec::new();
        merge_into(&mut roots, &tree, 0);
        assert_eq!(roots[0].counters.get("lp_pivots"), Some(&0));
        assert_eq!(roots[0].counters.len(), 1);
    }

    fn sample_report() -> TelemetryReport {
        let mut roots = Vec::new();
        merge_into(&mut roots, &root("solve", 1_500_000, ("setup", 200_000)), 0);
        TelemetryReport {
            spans: roots,
            counters: COUNTER_NAMES
                .iter()
                .enumerate()
                .map(|(i, n)| (n.to_string(), i as u64))
                .collect(),
            histograms: HIST_NAMES
                .iter()
                .map(|n| HistogramData {
                    name: n.to_string(),
                    count: 3,
                    sum: 12,
                    buckets: vec![(1, 1), (3, 2)],
                })
                .collect(),
            peak_live_bytes: 4096,
            peak_rss_bytes: Some(1 << 20),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample_report();
        let text = report.to_json().to_string_pretty();
        let parsed = mc3_core::json::parse(&text).expect("report JSON must parse");
        let back = TelemetryReport::from_json(&parsed).expect("strict parse");
        assert_eq!(back, report);
    }

    #[test]
    fn from_json_rejects_a_missing_registered_counter() {
        let report = sample_report();
        let mut v = report.to_json();
        if let Json::Object(map) = &mut v {
            if let Some(Json::Object(counters)) = map.get_mut("counters") {
                counters.remove("dinic_phases");
            }
        }
        let err = TelemetryReport::from_json(&v).expect_err("must flag drift");
        assert!(err.contains("dinic_phases"), "unexpected error: {err}");
    }

    #[test]
    fn from_json_rejects_a_bad_version() {
        let report = sample_report();
        let mut v = report.to_json();
        if let Json::Object(map) = &mut v {
            map.insert("version".to_owned(), Json::Int(99));
        }
        assert!(TelemetryReport::from_json(&v).is_err());
    }

    #[test]
    fn bucket_bound_edges_agree_with_bucket_bounds() {
        use crate::counters::{bucket_bounds, HIST_BUCKETS};
        // Edge buckets: 0, the last registered bucket, and overflow.
        assert_eq!(HistogramData::bucket_bound(0), 0);
        assert_eq!(HistogramData::bucket_bound(1), 1);
        assert_eq!(HistogramData::bucket_bound(HIST_BUCKETS - 1), u64::MAX);
        // Out-of-range indices saturate instead of panicking.
        assert_eq!(HistogramData::bucket_bound(HIST_BUCKETS), u64::MAX);
        assert_eq!(HistogramData::bucket_bound(usize::MAX), u64::MAX);
        // Every in-range bound is exactly the hi end of bucket_bounds.
        for idx in 0..HIST_BUCKETS {
            let (_, hi) = bucket_bounds(idx);
            assert_eq!(HistogramData::bucket_bound(idx), hi, "bucket {idx}");
        }
    }

    #[test]
    fn render_mentions_every_span_and_top_counter() {
        let report = sample_report();
        let text = report.render();
        assert!(text.contains("solve"));
        assert!(text.contains("setup"));
        assert!(text.contains("counters (non-zero"));
        assert!(text.contains("histogram component_size"));
    }

    #[test]
    fn from_json_rejects_a_span_without_mem() {
        let report = sample_report();
        let mut v = report.to_json();
        if let Json::Object(map) = &mut v {
            if let Some(Json::Array(spans)) = map.get_mut("spans") {
                if let Some(Json::Object(span)) = spans.first_mut() {
                    span.remove("mem");
                }
            }
        }
        let err = TelemetryReport::from_json(&v).expect_err("must flag v2 drift");
        assert!(err.contains("mem"), "unexpected error: {err}");
    }

    #[test]
    fn from_json_rejects_a_missing_peak_field() {
        let report = sample_report();
        let mut v = report.to_json();
        if let Json::Object(map) = &mut v {
            map.remove("peak_rss_bytes");
        }
        let err = TelemetryReport::from_json(&v).expect_err("must flag v2 drift");
        assert!(err.contains("peak_rss_bytes"), "unexpected error: {err}");
    }

    #[test]
    fn unmeasured_peak_rss_round_trips_as_null() {
        let mut report = sample_report();
        report.peak_rss_bytes = None;
        let text = report.to_json().to_string_pretty();
        assert!(text.contains("\"peak_rss_bytes\": null"), "{text}");
        let parsed = mc3_core::json::parse(&text).expect("report JSON must parse");
        let back = TelemetryReport::from_json(&parsed).expect("null rss is valid");
        assert_eq!(back.peak_rss_bytes, None);
        assert_eq!(back, report);
    }

    #[test]
    fn render_mem_shows_bytes_per_span_and_peaks() {
        let report = sample_report();
        let text = report.render_mem();
        assert!(text.contains("solve"), "{text}");
        assert!(text.contains("setup"), "{text}");
        assert!(text.contains("allocs="), "{text}");
        assert!(
            text.contains("total: 1.43MiB in 150000 allocations"),
            "{text}"
        );
        assert!(
            text.contains("peak live bytes (largest span root): 4.0KiB"),
            "{text}"
        );
        assert!(text.contains("peak rss (process): 1.00MiB"), "{text}");
    }

    #[test]
    fn assembled_peak_is_the_largest_root_peak_and_counters_sum_the_tree() {
        let mut roots = Vec::new();
        merge_into(&mut roots, &root("a", 100, ("a.big", 90_000)), 0);
        let mut b = Vec::new();
        instance(&mut b, None, "b", 3_000);
        merge_into(&mut roots, &b, 0);
        let report = assemble(Aggregate {
            roots,
            ..Aggregate::EMPTY
        });
        // Only top-level nodes are read: a real child's peak already
        // surfaces in its root's.
        assert_eq!(report.peak_live_bytes, 1_500);
        // Every node counts: `a`, `a/a.big` and `b` add 2 each.
        assert_eq!(report.counters["dinic_phases"], 6);
        assert_eq!(report.counters.len(), COUNTER_NAMES.len());
        let empty = assemble(Aggregate::EMPTY);
        assert_eq!(empty.peak_live_bytes, 0);
        assert!(empty.counters.values().all(|&v| v == 0));
    }

    #[test]
    fn bytes_format_adaptively() {
        assert_eq!(fmt_bytes(0), "0B");
        assert_eq!(fmt_bytes(1023), "1023B");
        assert_eq!(fmt_bytes(1536), "1.5KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00GiB");
    }
}
