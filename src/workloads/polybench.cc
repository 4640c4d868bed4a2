#include "workloads/polybench.hh"

#include <algorithm>

#include "noc/inst_pipeline.hh"

namespace canon
{

const char *
polyGroupName(PolyGroup g)
{
    switch (g) {
      case PolyGroup::Blas: return "PolyB-BLAS";
      case PolyGroup::Kernel: return "PolyB-Kernel";
      case PolyGroup::Stencil: return "PolyB-Stencil";
    }
    return "?";
}

namespace
{

/** load a; load b; acc += a*b  (the MAC triad every BLAS body uses) */
Dfg
macBody(const std::string &name)
{
    Dfg d(name);
    const int la = d.addNode("ldA", DfgOp::Load, 2);
    const int lb = d.addNode("ldB", DfgOp::Load, 2);
    const int mul = d.addNode("mul", DfgOp::Mul, 1);
    const int acc = d.addNode("acc", DfgOp::Add, 1);
    d.addEdge(la, mul);
    d.addEdge(lb, mul);
    d.addEdge(mul, acc);
    return d;
}

/** Two independent MACs sharing one streamed operand (gesummv etc). */
Dfg
dualMacBody(const std::string &name)
{
    Dfg d(name);
    const int lx = d.addNode("ldX", DfgOp::Load, 2);
    const int la = d.addNode("ldA", DfgOp::Load, 2);
    const int lb = d.addNode("ldB", DfgOp::Load, 2);
    const int m1 = d.addNode("mulA", DfgOp::Mul, 1);
    const int m2 = d.addNode("mulB", DfgOp::Mul, 1);
    const int a1 = d.addNode("accA", DfgOp::Add, 1);
    const int a2 = d.addNode("accB", DfgOp::Add, 1);
    d.addEdge(lx, m1);
    d.addEdge(la, m1);
    d.addEdge(lx, m2);
    d.addEdge(lb, m2);
    d.addEdge(m1, a1);
    d.addEdge(m2, a2);
    return d;
}

/** k-point stencil: k loads, k-1 adds, one scale, one store. */
Dfg
stencilBody(const std::string &name, int points)
{
    Dfg d(name);
    std::vector<int> loads;
    for (int i = 0; i < points; ++i)
        loads.push_back(
            d.addNode("ld" + std::to_string(i), DfgOp::Load, 2));
    int acc = loads[0];
    for (int i = 1; i < points; ++i) {
        const int add = d.addNode("add" + std::to_string(i),
                                  DfgOp::Add, 1);
        d.addEdge(acc, add);
        d.addEdge(loads[static_cast<std::size_t>(i)], add);
        acc = add;
    }
    const int scale = d.addNode("scale", DfgOp::Mul, 1);
    d.addEdge(acc, scale);
    const int st = d.addNode("st", DfgOp::Store, 1);
    d.addEdge(scale, st);
    return d;
}

/** Solver step: load, mul, sub, div-ish (modelled as mul), store. */
Dfg
solverBody(const std::string &name)
{
    Dfg d(name);
    const int la = d.addNode("ldA", DfgOp::Load, 2);
    const int lx = d.addNode("ldX", DfgOp::Load, 2);
    const int mul = d.addNode("mul", DfgOp::Mul, 1);
    const int sub = d.addNode("sub", DfgOp::Sub, 1);
    const int scl = d.addNode("scale", DfgOp::Mul, 1);
    const int st = d.addNode("st", DfgOp::Store, 1);
    d.addEdge(la, mul);
    d.addEdge(lx, mul);
    d.addEdge(mul, sub);
    d.addEdge(sub, scl);
    d.addEdge(scl, st);
    return d;
}

constexpr std::int64_t kN = 256;  // vector/matrix dimension
constexpr std::int64_t kT = 50;   // stencil time steps

} // namespace

std::vector<PolybenchKernel>
polybenchSuite()
{
    std::vector<PolybenchKernel> suite;
    const std::int64_t n2 = kN * kN;
    const std::int64_t n3 = n2 * kN;

    // ---- PolyB-BLAS (linear-algebra/blas + solvers) -------------------
    suite.push_back({"gemm", PolyGroup::Blas, macBody("gemm"), n3, 1,
                     n2, 1.0, false});
    suite.push_back({"gemver", PolyGroup::Blas, dualMacBody("gemver"),
                     4 * n2, 1, kN, 1.0, false});
    suite.push_back({"gesummv", PolyGroup::Blas,
                     dualMacBody("gesummv"), n2, 1, kN, 1.0, false});
    suite.push_back({"symm", PolyGroup::Blas, macBody("symm"), n3 / 2,
                     1, kN, 0.75, false});
    suite.push_back({"syrk", PolyGroup::Blas, macBody("syrk"), n3 / 2,
                     1, n2 / 2, 1.0, false});
    suite.push_back({"syr2k", PolyGroup::Blas, dualMacBody("syr2k"),
                     n3 / 2, 1, n2 / 2, 1.0, false});
    suite.push_back({"trmm", PolyGroup::Blas, macBody("trmm"), n3 / 2,
                     1, kN, 0.75, false});
    suite.push_back({"trisolv", PolyGroup::Blas, solverBody("trisolv"),
                     n2 / 2, 2, 1, 0.5, true});
    suite.push_back({"durbin", PolyGroup::Blas, solverBody("durbin"),
                     n2 / 2, 3, 1, 0.25, true});
    suite.push_back({"lu", PolyGroup::Blas, macBody("lu"), n3 / 3, 2,
                     8, 0.5, true});
    suite.push_back({"ludcmp", PolyGroup::Blas, solverBody("ludcmp"),
                     n3 / 3, 2, 8, 0.5, true});

    // ---- PolyB-Kernel (linear-algebra/kernels) ------------------------
    suite.push_back({"2mm", PolyGroup::Kernel, macBody("2mm"), 2 * n3,
                     1, n2, 1.0, false});
    suite.push_back({"3mm", PolyGroup::Kernel, macBody("3mm"), 3 * n3,
                     1, n2, 1.0, false});
    suite.push_back({"atax", PolyGroup::Kernel, macBody("atax"),
                     2 * n2, 1, kN, 1.0, false});
    suite.push_back({"bicg", PolyGroup::Kernel, dualMacBody("bicg"),
                     n2, 1, kN, 1.0, false});
    suite.push_back({"doitgen", PolyGroup::Kernel,
                     macBody("doitgen"), n3, 1, n2, 1.0, false});
    suite.push_back({"mvt", PolyGroup::Kernel, dualMacBody("mvt"), n2,
                     1, kN, 1.0, false});

    // ---- PolyB-Stencil -------------------------------------------------
    suite.push_back({"jacobi-1d", PolyGroup::Stencil,
                     stencilBody("jacobi-1d", 3), kT * kN, 1, kN, 1.0,
                     false});
    suite.push_back({"jacobi-2d", PolyGroup::Stencil,
                     stencilBody("jacobi-2d", 5), kT * n2, 1, n2, 1.0,
                     false});
    suite.push_back({"seidel-2d", PolyGroup::Stencil,
                     stencilBody("seidel-2d", 9), kT * n2, 2, 16, 0.5,
                     false});
    suite.push_back({"fdtd-2d", PolyGroup::Stencil,
                     stencilBody("fdtd-2d", 4), 3 * kT * n2, 1, n2,
                     1.0, false});
    suite.push_back({"heat-3d", PolyGroup::Stencil,
                     stencilBody("heat-3d", 7), kT * n2 * 16, 1, n2,
                     1.0, false});
    suite.push_back({"adi", PolyGroup::Stencil,
                     solverBody("adi"), 2 * kT * n2, 2, kN, 0.75,
                     false});
    return suite;
}

ExecutionProfile
canonPolybench(const PolybenchKernel &k, const CanonConfig &cfg)
{
    ExecutionProfile p;
    p.workload = k.name;
    p.peCount = static_cast<std::uint64_t>(cfg.numPes());

    const double lanes =
        static_cast<double>(cfg.numPes()) * kSimdWidth;
    // Scalar residue occupies one of four lanes.
    const double vec_eff =
        k.vecFraction + (1.0 - k.vecFraction) * 0.25;

    // Canon decouples data movement: loads/stores ride the EDDO
    // movers and the operand addresses come from the orchestrator, so
    // only arithmetic occupies the vector lanes -- and a mul feeding
    // an add fuses into one MAC lane op. (The CGRA, in contrast,
    // spatializes every DFG node onto a PE.)
    std::uint64_t mul_like = 0, add_like = 0;
    for (int v = 0; v < k.body.size(); ++v) {
        switch (k.body.node(v).op) {
          case DfgOp::Mul:
          case DfgOp::Mac:
            ++mul_like;
            break;
          case DfgOp::Load:
          case DfgOp::Store:
            break;
          default:
            ++add_like;
        }
    }
    const double lane_ops_per_iter = static_cast<double>(
        std::max<std::uint64_t>(std::max(mul_like, add_like), 1));
    const double ops =
        static_cast<double>(k.iters) * lane_ops_per_iter;

    const double compute_bound = ops / (lanes * vec_eff);
    // Conditional bodies are confined to PE rows: at most `rows`
    // independent control contexts (Section 4.2).
    const auto unroll_eff = std::max<std::int64_t>(
        1, k.condInner ? std::min<std::int64_t>(k.dlp, cfg.rows)
                       : k.dlp);
    const double dep_bound = static_cast<double>(k.iters) * k.recMii /
                             static_cast<double>(unroll_eff);

    // 6% orchestration overhead (flush/merge cadence measured on the
    // tensor kernels) plus the pipeline fill of the staggered issue.
    const double cycles = std::max(compute_bound, dep_bound) * 1.06 +
                          kIssueStagger * cfg.cols + 10;
    p.cycles = static_cast<std::uint64_t>(cycles);

    std::uint64_t mem_nodes = 0;
    for (int v = 0; v < k.body.size(); ++v) {
        const auto op = k.body.node(v).op;
        if (op == DfgOp::Load || op == DfgOp::Store)
            ++mem_nodes;
    }
    p.add(Activity::LaneMacs, static_cast<std::uint64_t>(k.iters) * mul_like);
    p.add(Activity::AluOps,
          static_cast<std::uint64_t>(k.iters) *
              (add_like > mul_like ? add_like - mul_like : 0));
    p.add(Activity::DmemReads,
          static_cast<std::uint64_t>(k.iters) * mem_nodes / 4);
    p.add(Activity::OrchCycles,
          p.cycles * static_cast<std::uint64_t>(cfg.rows));
    p.add(Activity::LutLookups,
          p.cycles * static_cast<std::uint64_t>(cfg.rows));
    p.add(Activity::InstHops, p.cycles * static_cast<std::uint64_t>(
                                     cfg.rows * cfg.cols));
    p.add(Activity::RouterHops,
          static_cast<std::uint64_t>(k.iters) * mem_nodes / 8);
    return p;
}

ExecutionProfile
cgraPolybench(const PolybenchKernel &k, const CgraModel &cgra)
{
    const auto max_unroll = static_cast<int>(std::min<std::int64_t>(
        k.dlp, cgra.config().numPes()));
    return cgra.loopKernel(k.body, k.iters, k.recMii,
                           std::max(1, max_unroll), k.name);
}

} // namespace canon
