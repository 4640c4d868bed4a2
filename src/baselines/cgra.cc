#include "baselines/cgra.hh"

#include "common/bitfield.hh"

namespace canon
{

Dfg
replicateDfg(const Dfg &dfg, int copies)
{
    panicIf(copies <= 0, "replicateDfg: need at least one copy");
    Dfg out(dfg.name() + "x" + std::to_string(copies));
    for (int c = 0; c < copies; ++c) {
        const int base = c * dfg.size();
        for (int v = 0; v < dfg.size(); ++v) {
            const auto &n = dfg.node(v);
            out.addNode(n.name + "#" + std::to_string(c), n.op,
                        n.latency);
        }
        for (int v = 0; v < dfg.size(); ++v)
            for (int p : dfg.preds(v))
                out.addEdge(base + p, base + v);
    }
    return out;
}

CgraModel::CgraModel(const CgraConfig &cfg)
    : cfg_(cfg), mapper_(cfg),
      systolic_(SystolicConfig{cfg.rows, cfg.cols,
                               SparsitySupport::Dense})
{
}

ExecutionProfile
CgraModel::emulate(ExecutionProfile p) const
{
    p.peCount = static_cast<std::uint64_t>(cfg_.numPes());
    // Each configured PE re-fetches its (held) instruction and drives
    // its crossbar switch every active cycle; data hops between
    // neighbours replace the systolic array's hardwired shifts.
    p.erase(Activity::ShiftOps);
    p.add(Activity::InstFetches,
          p.cycles * static_cast<std::uint64_t>(cfg_.numPes()));
    p.add(Activity::RouterHops, p.get(Activity::MacSlots));
    return p;
}

ExecutionProfile
CgraModel::gemm(std::int64_t m, std::int64_t k, std::int64_t n) const
{
    auto p = emulate(systolic_.gemm(m, k, n));
    p.workload = "gemm";
    return p;
}

ExecutionProfile
CgraModel::spmm(std::int64_t m, std::int64_t k, std::int64_t n,
                double sparsity) const
{
    auto p = emulate(systolic_.spmm(m, k, n, sparsity));
    p.workload = "spmm";
    return p;
}

ExecutionProfile
CgraModel::sddmm(std::int64_t m, std::int64_t k, std::int64_t n,
                 double mask_sparsity) const
{
    auto p = emulate(systolic_.sddmm(m, k, n, mask_sparsity));
    p.workload = "sddmm";
    return p;
}

ExecutionProfile
CgraModel::sddmmWindow(std::int64_t seq, std::int64_t k,
                       std::int64_t window) const
{
    auto p = emulate(systolic_.sddmmWindow(seq, k, window));
    p.workload = "sddmm-win";
    return p;
}

ExecutionProfile
CgraModel::loopKernel(const Dfg &body, std::int64_t iters, int rec_mii,
                      int max_unroll,
                      const std::string &workload) const
{
    ExecutionProfile p;
    p.workload = workload;
    p.peCount = static_cast<std::uint64_t>(cfg_.numPes());

    // Unroll as far as the fabric and the kernel's parallelism allow.
    int unroll = std::max(
        1, std::min(max_unroll, cfg_.numPes() / std::max(1,
                                                         body.size())));
    CgraMapping mapping;
    for (; unroll >= 1; unroll /= 2) {
        mapping = mapper_.map(replicateDfg(body, unroll),
                              unroll > 1 ? 1 : rec_mii);
        if (mapping.ok)
            break;
    }
    panicIf(!mapping.ok, "CgraModel: '", body.name(),
            "' does not map onto the fabric");

    const auto waves = divCeil(static_cast<std::uint64_t>(iters),
                               static_cast<std::uint64_t>(unroll));
    p.cycles = waves * static_cast<std::uint64_t>(mapping.ii) +
               static_cast<std::uint64_t>(mapping.schedLen);

    std::uint64_t mac_nodes = 0, mem_nodes = 0, alu_nodes = 0;
    for (int v = 0; v < body.size(); ++v) {
        switch (body.node(v).op) {
          case DfgOp::Mul:
          case DfgOp::Mac:
            ++mac_nodes;
            break;
          case DfgOp::Load:
          case DfgOp::Store:
            ++mem_nodes;
            break;
          default:
            ++alu_nodes;
        }
    }
    p.add(Activity::LaneMacs, static_cast<std::uint64_t>(iters) * mac_nodes);
    p.add(Activity::AluOps, static_cast<std::uint64_t>(iters) * alu_nodes);
    p.add(Activity::EdgeSramReads,
          static_cast<std::uint64_t>(iters) * mem_nodes);
    p.add(Activity::RouterHops, waves * mapping.routeHops);
    p.add(Activity::InstFetches,
          p.cycles * static_cast<std::uint64_t>(mapping.pesUsed));
    return p;
}

} // namespace canon
