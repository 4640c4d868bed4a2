#include "kernels/dense_cadence.hh"

#include "kernels/spmm.hh"
#include "sparse/generate.hh"

namespace canon
{

std::shared_ptr<OrchProgram>
buildCadenceProgram(int cadence)
{
    using P = Predicate;
    namespace as = addrspace;
    namespace st = cadence_state;

    fatalIf(cadence <= 0, "buildCadenceProgram: cadence must be "
                          "positive, got ", cadence);

    auto prog = std::make_shared<OrchProgram>("dense-cadence");
    prog->setCondConst(static_cast<std::uint16_t>(cadence));
    prog->setCondConstB(kMergeWindow);

    const PredicateSet run_preds = {P::InputIsEnd, P::Meta1EqConst,
                                    P::MsgMinusMeta0LtB, P::InputIsAux};
    prog->setPredicates(st::kMac, run_preds);
    prog->setPredicates(st::kMerge, run_preds);
    prog->setPredicates(st::kFlush, run_preds);
    prog->setPredicates(st::kDrain,
                        {P::False, P::False, P::False, P::False});

    const int am_win = prog->addAddrMode(
        AddrMode::fixed(as::portIn(Dir::West)));
    const int am_nin = prog->addAddrMode(
        AddrMode::fixed(as::portIn(Dir::North)));
    const int am_sout = prog->addAddrMode(
        AddrMode::fixed(as::portOut(Dir::South)));
    const int am_brow = prog->addAddrMode(
        AddrMode::indexed(as::kDmemBase, ValueSel::InputValue));
    // Register ring: output row m accumulates in R[m mod 8].
    const int am_rcur = prog->addAddrMode(AddrMode::indexed(
        as::kRegBase, ValueSel::Meta0, kMergeWindow - 1));
    const int am_rmsg = prog->addAddrMode(AddrMode::indexed(
        as::kRegBase, ValueSel::MsgValue, kMergeWindow - 1));

    const int rt_w2e = prog->addRouteMode(kRouteW2E);
    const int rt_n2s = prog->addRouteMode(kRouteN2S);
    const int rt_both = prog->addRouteMode(kRouteW2E | kRouteN2S);

    const int mm_psum_cur =
        prog->addMsgMode(MsgMode::emit(kMsgPsum, ValueSel::Meta0));
    const int mm_forward = prog->addMsgMode(MsgMode::forward());

    const int mu0_inc = prog->addMetaUpdate(0, MetaUpdate::add(1));
    const int mu1_inc = prog->addMetaUpdate(1, MetaUpdate::add(1));
    const int mu1_clr = prog->addMetaUpdate(1, MetaUpdate::set(0));

    prog->setInitialState(st::kMac);
    prog->setDoneState(st::kDrain);

    for (std::uint8_t s : {st::kMac, st::kMerge, st::kFlush}) {
        // Merge a psum for a row inside the register window.
        prog->rule(s)
            .onMsg(kMsgPsum)
            .when(P::MsgMinusMeta0LtB)
            .op(OpCode::VAdd)
            .op1(am_rmsg)
            .op2(am_nin)
            .res(am_rmsg)
            .consumeMsg()
            .next(st::kMerge);

        // Outside the window (drift): bypass; the collector sums. The
        // bypass rides along with the next MAC (Appendix C case 3) so
        // relaying costs the row no throughput -- otherwise relayed
        // traffic would slow lower rows, grow the drift, and cascade.
        prog->rule(s)
            .onMsg(kMsgPsum)
            .whenNot(P::MsgMinusMeta0LtB)
            .whenNot(P::Meta1EqConst)
            .whenNot(P::InputIsEnd)
            .whenNot(P::InputIsAux)
            .op(OpCode::SvMac)
            .op1(am_win)
            .op2(am_brow)
            .res(am_rcur)
            .route(rt_both)
            .msg(mm_forward)
            .consumeMsg()
            .consumeInput()
            .westFeed(WestFeed::TokenData)
            .meta1(mu1_inc)
            .stallable()
            .next(st::kMac);

        // Bypass with no MAC to pair it with (flush boundary, idle,
        // or end of stream): costs the cycle.
        prog->rule(s)
            .onMsg(kMsgPsum)
            .whenNot(P::MsgMinusMeta0LtB)
            .op(OpCode::Nop)
            .route(rt_n2s)
            .msg(mm_forward)
            .consumeMsg()
            .stallable();

        // Cadence reached: flush this row's register south.
        prog->rule(s)
            .onNoMsg()
            .when(P::Meta1EqConst)
            .op(OpCode::VFlush)
            .op1(am_rcur)
            .res(am_sout)
            .msg(mm_psum_cur)
            .meta0(mu0_inc)
            .meta1(mu1_clr)
            .stallable()
            .next(st::kFlush);

        // Stream a non-zero into the row.
        prog->rule(s)
            .onNoMsg()
            .whenNot(P::Meta1EqConst)
            .whenNot(P::InputIsEnd)
            .whenNot(P::InputIsAux)
            .op(OpCode::SvMac)
            .op1(am_win)
            .op2(am_brow)
            .res(am_rcur)
            .route(rt_w2e)
            .westFeed(WestFeed::TokenData)
            .consumeInput()
            .meta1(mu1_inc)
            .next(st::kMac);

        // Stream exhausted (after the final flush cleared meta1).
        prog->rule(s)
            .onNoMsg()
            .when(P::InputIsEnd)
            .whenNot(P::Meta1EqConst)
            .next(st::kDrain);
    }

    // DRAIN: relay whatever upstream rows still flush.
    prog->rule(st::kDrain)
        .onMsg(kMsgPsum)
        .op(OpCode::Nop)
        .route(rt_n2s)
        .msg(mm_forward)
        .consumeMsg()
        .stallable();

    prog->compile();
    return prog;
}

namespace
{

/**
 * Shared body of the two cadence mappings: the row-sliced shape
 * checks and B placement, then skewed per-row non-zero streams.
 */
KernelMapping
mapCadence(const DenseMatrix &a, const DenseMatrix &b, int cadence,
           const CanonConfig &cfg, const std::string &name)
{
    KernelMapping map =
        mapRowSliced(name, name, a.rows(), a.cols(), b, cfg);
    map.program = buildCadenceProgram(cadence);
    const int h = b.rows() / cfg.rows;

    const Cycle skew = static_cast<Cycle>(cadence) + 2;
    map.rowStreams.reserve(cfg.rows);
    for (int y = 0; y < cfg.rows; ++y) {
        const int k_lo = y * h;
        std::vector<MetaToken> tokens;
        for (int m = 0; m < a.rows(); ++m) {
            int count = 0;
            for (int kk = 0; kk < h; ++kk) {
                const Elem v = a.at(m, k_lo + kk);
                if (v != 0) {
                    tokens.push_back(MetaToken::nnz(
                        static_cast<std::uint16_t>(kk), v));
                    ++count;
                }
            }
            fatalIf(count != cadence, name, ": output row ", m,
                    " slice ", y, " has ", count,
                    " non-zeros, cadence needs exactly ", cadence);
        }
        map.rowStreams.emplace_back(std::move(tokens),
                                    static_cast<Cycle>(y) * skew);
    }
    return map;
}

} // namespace

KernelMapping
mapGemm(const DenseMatrix &a, const DenseMatrix &b,
        const CanonConfig &cfg)
{
    fatalIf(static_cast<std::size_t>(a.rows()) * a.cols() !=
                a.countNonZero(),
            "mapGemm: A contains zeros; use mapSpmm or mapNmSpmm");
    const int h = b.rows() / std::max(cfg.rows, 1);
    return mapCadence(a, b, h, cfg, "gemm");
}

KernelMapping
mapNmSpmm(const DenseMatrix &a, const DenseMatrix &b, int n, int m,
          const CanonConfig &cfg)
{
    fatalIf(!conformsToNm(a, n, m), "mapNmSpmm: A violates ", n, ":", m,
            " structure");
    const int h = b.rows() / std::max(cfg.rows, 1);
    fatalIf(h % m != 0, "mapNmSpmm: K-slice ", h,
            " not divisible by the M of ", n, ":", m);
    return mapCadence(a, b, h * n / m, cfg,
                      "spmm-" + std::to_string(n) + ":" +
                          std::to_string(m));
}

} // namespace canon
