#include "bench_util.hh"

#include <cmath>
#include <exception>

#include "common/logging.hh"

namespace canon
{
namespace bench
{

namespace
{

/** Geometric-mean aggregate of a PolyBench group on Canon and CGRA. */
WorkloadCase
polyGroupCase(PolyGroup group)
{
    const CanonConfig cfg = CanonConfig::paper();
    const CgraModel cgra; // the suite's: CgraConfig{}
    double log_canon = 0.0, log_cgra = 0.0;
    int count = 0;
    ExecutionProfile canon_sum, cgra_sum;
    for (const auto &k : polybenchSuite()) {
        if (k.group != group)
            continue;
        const auto c = canonPolybench(k, cfg);
        const auto g = cgraPolybench(k, cgra);
        log_canon += std::log(static_cast<double>(c.cycles));
        log_cgra += std::log(static_cast<double>(g.cycles));
        canon_sum.accumulate(c);
        cgra_sum.accumulate(g);
        ++count;
    }
    // Scale the accumulated activity so the cycle totals equal the
    // geomean (keeps energy ratios representative of the group).
    const double canon_geo = std::exp(log_canon / count);
    const double cgra_geo = std::exp(log_cgra / count);
    canon_sum.scale(canon_geo / static_cast<double>(canon_sum.cycles));
    cgra_sum.scale(cgra_geo / static_cast<double>(cgra_sum.cycles));
    canon_sum.peCount = cfg.numPes();
    cgra_sum.peCount = cgra.config().numPes();

    WorkloadCase wc;
    wc.label = polyGroupName(group);
    wc.results[Arch::Canon] = canon_sum;
    wc.results[Arch::Cgra] = cgra_sum;
    return wc;
}

} // namespace

const std::vector<std::string> &
figure12Labels()
{
    static const std::vector<std::string> labels = {
        "GEMM",       "SpMM-S1",    "SpMM-S2",      "SpMM-S3",
        "SpMM-2:4",   "SpMM-2:8",   "SDDMM",        "SDDMM-Win1",
        "SDDMM-Win2", "PolyB-BLAS", "PolyB-Kernel", "PolyB-Stencil"};
    return labels;
}

WorkloadCase
figure12Case(std::size_t index, const ArchSuite &suite)
{
    const std::string &label = figure12Labels().at(index);
    auto run = [&](const LayerSpec &layer, std::uint64_t seed) {
        return WorkloadCase{label, suite.run(layer, seed)};
    };
    switch (index) {
      // Shapes follow the paper's layer regime: K in the thousands
      // (hidden dimensions), so per-row-slice non-zero populations
      // are realistic.
      case 0:
        return run({label, Workload::Gemm, 256, 512, 256}, 101);

      // Unstructured sparsity ranges: S1 0-30%, S2 30-60%, S3 60-95%.
      // S3 additionally carries the skewed row populations of real
      // activation tensors (Section 6.2).
      case 1:
        return run({label, Workload::Spmm, 512, 1024, 256, 0.15}, 102);
      case 2:
        return run({label, Workload::Spmm, 512, 1024, 256, 0.45}, 103);
      case 3:
        return {label,
                suite.spmmBimodal(512, 1024, 256, 0.65, 0.95, 104)};

      case 4:
        return run({label, Workload::SpmmNm, 512, 1024, 256, 0, 0, 1, 2, 4},
                   105);
      case 5:
        return run({label, Workload::SpmmNm, 512, 1024, 256, 0, 0, 1, 2, 8},
                   106);

      case 6:
        return run({label, Workload::Sddmm, 512, 32, 512, 0.70}, 107);
      // Win1: Longformer on BERT (window 512, seq 4K, head dim 64).
      case 7:
        return run({label, Workload::SddmmWindow, 4096, 64, 4096, 0, 512},
                   108);
      // Win2: Mistral-7B (window 4K, context 16K, head dim 128).
      case 8:
        return run({label, Workload::SddmmWindow, 16384, 128, 16384, 0, 4096},
                   109);

      case 9:
        return polyGroupCase(PolyGroup::Blas);
      case 10:
        return polyGroupCase(PolyGroup::Kernel);
      case 11:
        return polyGroupCase(PolyGroup::Stencil);
      default:
        fatal("figure12Case: index ", index, " out of range");
    }
}

const char *
benchUsageText()
{
    return "Options:\n"
           "  --jobs N     worker threads (default: hardware"
           " concurrency,\n"
           "               except timing benches which default to 1;\n"
           "               output is byte-identical regardless of N)\n"
           "  --shard I/N  run slice I of N of the job list"
           " (default 0/1);\n"
           "               shard CSVs concatenate in shard order to"
           " the\n"
           "               full CSV (only shard 0 writes the header)\n"
           "  --cache-dir D  content-addressed result cache: grid"
           " points\n"
           "               already in D render without re-simulating"
           " (a\n"
           "               warm rerun executes 0 jobs, byte-identical"
           " CSVs);\n"
           "               safe to share across --jobs/--shard runs\n"
           "  --cache M    off | read | write | readwrite | refresh\n"
           "               (default readwrite; refresh re-runs and\n"
           "               overwrites existing entries)\n"
           "  --sample-every N  sample fabric counters every N"
           " simulated\n"
           "               cycles (cycle-resolved time series)\n"
           "  --series-out P  sampled series as long-form CSV"
           " (requires\n"
           "               --sample-every)\n"
           "  --trace-out P  Chrome trace-event JSON of the run\n"
           "  --stats-json P  canon.stats.v2 per-point stats dump\n"
           "  --cycle-accounting  per-component stall-cause cycle\n"
           "               breakdown + occupancy histograms\n"
           "  --host-timers  host wall-clock phase timers per point\n"
           "               (--stats-json only; not byte-stable)\n"
           "               (observability flags never change figure\n"
           "               CSVs or cache keys; cached points render\n"
           "               without simulating, so they record only\n"
           "               their cache events and host phases)\n"
           "  --help       show this text and exit\n";
}

std::string
parseBenchArgs(const std::vector<std::string> &args, BenchOptions &out)
{
    std::string err = engine::FlagSet(out.showHelp)
                          .add(engine::commonFlags(), out.common)
                          .parse(args);
    return err.empty() ? engine::validateCommonFlags(out.common) : err;
}

} // namespace bench
} // namespace canon
