//! The traced run: per-layer metrics from the staged pipeline and the
//! layer probes, checked against `run_pipeline_opts` on the same input.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::{metric, Metric, Report, RunContext};
use crate::run::{fastest, guarded};
use crate::spans::{self_times, Recorder, SpanRec};
use crate::staged::{probes, staged_pass};
use crate::workload::{ckpt_cycle, generate, run_op, scratch_dir};

/// Fewest passes of a full-scale run. A pass is the workload's operation
/// untraced, then the same operation staged; every time reported is the
/// fastest of its samples over the passes (see `run::fastest` for why).
const MIN_PASSES: usize = 2;
/// Pass id of the probes, which run once after the staged passes.
const PROBE_PASS: usize = usize::MAX;
/// Below this share of `pipeline_s` the staged decomposition no longer
/// describes the program.
pub const MIN_COVERAGE: f64 = 0.85;

/// Is `span` under a `trinity.pipeline` root (rather than a probe root)?
fn on_pipeline_path(spans: &[SpanRec], mut i: usize) -> bool {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    spans[i].name == "trinity.pipeline"
}

fn write_trace_json(path: &Path, workload: &str, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let counts: Vec<String> = sp
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = write!(
            s,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \
             \"workload\": \"{workload}\", \"pass\": {}, \"counts\": {{{}}}}}",
            sp.name,
            sp.start,
            sp.end,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            if sp.pass == PROBE_PASS {
                "\"probe\"".to_string()
            } else {
                sp.pass.to_string()
            },
            counts.join(", ")
        );
        s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    s.push_str("]\n");
    std::fs::create_dir_all(path.parent().expect("trace path has a parent"))?;
    std::fs::write(path, s)
}

/// Measure the per-layer metrics of `ctx.workload` and write its span
/// trace to `<out_dir>/<workload>.trace.json`.
pub fn trace(ctx: &RunContext, out_dir: &Path) -> Result<Report, String> {
    let w = &ctx.workload;
    let cfg = w.config();
    let input = generate(w, ctx.seed);
    let reads = &input.reads;
    let mut report = Report::default();

    // Warm-up, on every workload: a checkpoint save run and a resume run.
    // It warms the allocator and caches like any first rep, and times the
    // two halves of the checkpoint path where they are otherwise off-path.
    report.attempted += 1;
    let warm = guarded(|| ckpt_cycle(reads, &cfg, &scratch_dir(out_dir)))
        .map_err(|e| format!("warm-up checkpoint cycle failed: {e}"))?;
    report.digest = warm.digest;
    let resumed_stages = warm.output.metrics.counter("ckpt.resumed").unwrap_or(0);
    let (save_run_s, resume_run_s) = (warm.runs[0].wall_s, warm.runs[1].wall_s);
    drop(warm);

    // Passes: the workload's operation untraced (what the staged pass must
    // add up to), then staged.
    let mut rec = Recorder::new();
    let min_passes = if ctx.smoke { 1 } else { MIN_PASSES };
    let mut last = None;
    let mut pipeline_samples = Vec::new();
    let mut passes = 0;
    let timed = Instant::now();
    let mut pass_s = 0.0;
    // Past the minimum, start a pass only if it should end within
    // `--seconds`: a pass is two operations, and overshooting by one buys
    // the per-layer numbers little.
    while passes < min_passes || timed.elapsed().as_secs_f64() + pass_s <= ctx.seconds {
        let pass_start = Instant::now();
        report.attempted += 1;
        let untraced = guarded(|| run_op(w, reads, &scratch_dir(out_dir)))
            .map_err(|e| format!("untraced operation failed: {e}"))?;
        pipeline_samples.push(pass_start.elapsed().as_secs_f64());
        if untraced.digest != report.digest {
            report.failures.push(format!(
                "pass {passes}: untraced digest {:016x} differs from the warm-up's {:016x}",
                untraced.digest, report.digest
            ));
        }

        rec.set_pass(passes);
        report.attempted += 1;
        let dir = scratch_dir(out_dir);
        let staged = guarded(|| Ok(staged_pass(w, reads, &mut rec, &dir)))
            .map_err(|e| format!("staged pass {passes} failed: {e}"))?;
        if staged.digest != report.digest {
            report.failures.push(format!(
                "pass {passes}: staged digest {:016x} differs from run_pipeline_opts' {:016x}",
                staged.digest, report.digest
            ));
        }
        last = Some((untraced, staged));
        passes += 1;
        pass_s = pass_start.elapsed().as_secs_f64();
    }
    report.failed = report.failures.len() as u64;
    let (untraced, staged) = last.expect("at least one pass");
    let pipeline_s = fastest(pipeline_samples.into_iter());

    rec.set_pass(PROBE_PASS);
    let probe = probes(w, reads, &staged.artifacts, &untraced.output, &mut rec);
    let spans = rec.spans;
    write_trace_json(
        &out_dir.join(format!("{}.trace.json", w.name)),
        w.name,
        &spans,
    )
    .map_err(|e| format!("cannot write the span trace: {e}"))?;

    // Self time by span name, one map per pass and one for the probes; and
    // per pass, over the pipeline path only, the layer calls' self time by
    // name and the roots' duration.
    let selfs = self_times(&spans);
    let mut by_name = vec![BTreeMap::<&str, f64>::new(); passes + 1];
    let mut layer_s = vec![BTreeMap::<&str, f64>::new(); passes];
    let mut root_s = vec![0.0; passes];
    for (i, sp) in spans.iter().enumerate() {
        *by_name[sp.pass.min(passes)].entry(sp.name).or_insert(0.0) += selfs[i];
        if sp.pass == PROBE_PASS || !on_pipeline_path(&spans, i) {
            continue;
        }
        match sp.parent {
            Some(_) => *layer_s[sp.pass].entry(sp.name).or_insert(0.0) += selfs[i],
            None => root_s[sp.pass] += sp.end - sp.start,
        }
    }
    // Fastest over the passes that recorded `name` (NaN if none did).
    let fastest_of = |maps: &[BTreeMap<&str, f64>], name: &str| {
        let v = fastest(maps.iter().filter_map(|m| m.get(name).copied()));
        if v.is_finite() {
            v
        } else {
            f64::NAN
        }
    };
    let layer_sum: f64 = layer_s[0]
        .keys()
        .map(|name| fastest_of(&layer_s, name))
        .sum();
    let traced_pass_s = fastest(root_s.into_iter());

    let t = |name: &str| fastest_of(&by_name, name);
    let n_reads = reads.len() as f64;
    let a = &staged.artifacts;
    let coverage = layer_sum / pipeline_s;
    let s = "s";
    let count = "count";
    let frac = "fraction";
    let metrics: Vec<Metric> = vec![
        metric("simulate.generate_s", input.generate_s, s),
        metric("simulate.reads", n_reads, count),
        metric("simulate.ref_bases", input.ref_bases as f64, count),
        metric("seqio.parse_s", input.parse_s, s),
        metric("seqio.encode_s", t("seqio.encode"), s),
        metric("seqio.encoded_bases", staged.encoded_bases as f64, count),
        metric("seqio.rolled_windows", staged.rolled_windows as f64, count),
        metric("kcount.count_s", t("kcount.count"), s),
        metric("kcount.merge_s", t("kcount.merge"), s),
        metric("kcount.distinct_kmers", a.counts.len() as f64, count),
        metric(
            "kcount.kmers_per_s",
            staged.kmers_counted as f64 / t("kcount.count"),
            "1/s",
        ),
        metric("kmertable.insert_s", t("kmertable.insert"), s),
        metric("kmertable.probe_s", t("kmertable.probe"), s),
        metric(
            "kmertable.mean_probe_len",
            probe.kmertable_mean_probe_len,
            "slots",
        ),
        metric("kmertable.load_factor", probe.kmertable_load_factor, frac),
        metric("inchworm.dictionary_s", t("inchworm.dictionary"), s),
        metric("inchworm.assemble_s", t("inchworm.assemble"), s),
        metric("inchworm.contigs", a.contigs.len() as f64, count),
        metric("inchworm.contig_bases", staged.contig_bases as f64, count),
        metric("bowtie.index_s", t("bowtie.index"), s),
        metric("bowtie.align_s", t("bowtie.align"), s),
        metric("bowtie.reads_per_s", n_reads / t("bowtie.align"), "1/s"),
        metric(
            "bowtie.aligned_frac",
            probe.bowtie_aligned_reads as f64 / n_reads,
            frac,
        ),
        metric("bowtie.sam_records", probe.bowtie_sam_records as f64, count),
        metric("chrysalis.bowtie_mpi_s", t("chrysalis.bowtie_mpi"), s),
        metric("chrysalis.gff_prepare_s", t("chrysalis.gff_prepare"), s),
        metric("chrysalis.gff_run_s", t("chrysalis.gff_run"), s),
        metric("chrysalis.gff_welds", a.welds.len() as f64, count),
        metric("chrysalis.gff_pairs", a.pairs.len() as f64, count),
        metric("chrysalis.quantify_s", t("chrysalis.quantify"), s),
        metric("chrysalis.components", a.components.len() as f64, count),
        metric("chrysalis.rtt_prepare_s", t("chrysalis.rtt_prepare"), s),
        metric("chrysalis.rtt_run_s", t("chrysalis.rtt_run"), s),
        metric(
            "chrysalis.rtt_assigned_frac",
            a.assignments.len() as f64 / n_reads,
            frac,
        ),
        metric("chrysalis.gff_virtual_s", staged.virt.gff, s),
        metric("chrysalis.rtt_virtual_s", staged.virt.rtt, s),
        metric("chrysalis.bowtie_virtual_s", staged.virt.bowtie, s),
        metric(
            "chrysalis.gff_rank_imbalance",
            staged.virt.gff_rank_imbalance,
            "ratio",
        ),
        metric("mpisim.bytes_sent", staged.bytes_sent as f64, "bytes"),
        metric("mpisim.collectives", staged.collectives as f64, count),
        metric("mpisim.comm_virtual_s", staged.virt.comm, s),
        metric("mpisim.allgatherv_wall_s", t("mpisim.allgatherv"), s),
        metric("omp.simulate_loop_s", t("omp.simulate_loop"), s),
        metric("butterfly.reconstruct_s", t("butterfly.reconstruct"), s),
        metric("butterfly.transcripts", staged.transcripts as f64, count),
        metric(
            "butterfly.max_component_reads",
            staged.max_component_reads as f64,
            count,
        ),
        metric("obs.export_s", t("obs.export"), s),
        metric("obs.analyze_s", t("obs.analyze"), s),
        metric("obs.sampler_s", t("obs.sampler"), s),
        metric("obs.trace_spans", probe.obs_trace_spans as f64, count),
        metric("obs.trace_bytes", probe.obs_trace_bytes as f64, "bytes"),
        metric("trinity.pipeline_s", pipeline_s, s),
        metric("trinity.glue_s", pipeline_s - layer_sum, s),
        metric("trinity.trace_coverage", coverage, frac),
        metric("trinity.ckpt_save_run_s", save_run_s, s),
        metric("trinity.ckpt_resume_run_s", resume_run_s, s),
        metric("trinity.ckpt_encode_s", t("trinity.ckpt_encode"), s),
        metric("trinity.ckpt_decode_s", t("trinity.ckpt_decode"), s),
        metric("trinity.ckpt_save_s", t("trinity.ckpt_save"), s),
        metric("trinity.ckpt_load_s", t("trinity.ckpt_load"), s),
        metric("trinity.ckpt_bytes", staged.ckpt_bytes as f64, "bytes"),
        metric("trinity.ckpt_resumed_stages", resumed_stages as f64, count),
        metric(
            "trace.overhead_frac",
            traced_pass_s / pipeline_s - 1.0,
            frac,
        ),
    ];
    report.metrics = metrics;
    if !ctx.smoke && coverage < MIN_COVERAGE {
        eprintln!(
            "warning: trinity.trace_coverage {coverage:.3} < {MIN_COVERAGE}: the staged \
             decomposition no longer describes run_pipeline_opts"
        );
    }
    Ok(report)
}
