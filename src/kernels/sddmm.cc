#include "kernels/sddmm.hh"

#include "common/bitfield.hh"

namespace canon
{

std::shared_ptr<OrchProgram>
buildSddmmProgram(int total_steps, int spad_depth)
{
    using P = Predicate;
    namespace as = addrspace;
    namespace st = sddmm_state;

    fatalIf(!isPowerOf2(static_cast<std::uint64_t>(spad_depth)),
            "buildSddmmProgram: scratchpad depth ", spad_depth,
            " must be a power of two");

    auto prog = std::make_shared<OrchProgram>("sddmm");
    prog->setCondConst(static_cast<std::uint16_t>(total_steps));
    prog->setCondConstB(static_cast<std::uint16_t>(spad_depth));

    const PredicateSet run_preds = {P::InputIsEnd, P::InputIsRowEnd,
                                    P::Meta1MinusMeta0LtB,
                                    P::Meta1GtMeta0};
    prog->setPredicates(st::kMac, run_preds);
    prog->setPredicates(st::kLoadA, run_preds);
    prog->setPredicates(st::kDrain, {P::Meta1EqConst, P::False,
                                     P::False, P::False});
    prog->setPredicates(st::kDone,
                        {P::False, P::False, P::False, P::False});

    const int am_nin = prog->addAddrMode(
        AddrMode::fixed(as::portIn(Dir::North)));
    const int am_eout = prog->addAddrMode(
        AddrMode::fixed(as::portOut(Dir::East)));
    // Prefetch target: A slot meta1 mod depth; compute source: slot
    // meta0 mod depth.
    const int am_aslot_w = prog->addAddrMode(AddrMode::indexed(
        as::kSpadBase, ValueSel::Meta1,
        static_cast<std::uint16_t>(spad_depth - 1)));
    const int am_aslot_r = prog->addAddrMode(AddrMode::indexed(
        as::kSpadBase, ValueSel::Meta0,
        static_cast<std::uint16_t>(spad_depth - 1)));
    const int am_bcol = prog->addAddrMode(
        AddrMode::indexed(as::kDmemBase, ValueSel::InputValue));

    const int rt_n2s = prog->addRouteMode(kRouteN2S);

    const int mm_forward = prog->addMsgMode(MsgMode::forward());

    const int mu0_inc = prog->addMetaUpdate(0, MetaUpdate::add(1));
    const int mu1_inc = prog->addMetaUpdate(1, MetaUpdate::add(1));

    prog->setInitialState(st::kMac);
    prog->setDoneState(st::kDone);

    for (std::uint8_t s : {st::kMac, st::kLoadA}) {
        // Prefetch an arriving A vector into the circular window and
        // forward it (data + announcement) to the next row.
        prog->rule(s)
            .onMsg(kMsgAVec)
            .when(P::Meta1MinusMeta0LtB)
            .op(OpCode::VMov)
            .op1(am_nin)
            .res(am_aslot_w)
            .route(rt_n2s)
            .msg(mm_forward)
            .consumeMsg()
            .meta1(mu1_inc)
            .stallable()
            .next(st::kLoadA);

        // Compute one live mask position: A[m] . B[:,n] rides the
        // west->east psum chain; the east edge reduces lanes.
        prog->rule(s)
            .whenNot(P::InputIsEnd)
            .whenNot(P::InputIsRowEnd)
            .when(P::Meta1GtMeta0)
            .op(OpCode::VvMacW)
            .op1(am_aslot_r)
            .op2(am_bcol)
            .res(am_eout)
            .westFeed(WestFeed::ZeroVec)
            .outRec()
            .consumeInput()
            .next(st::kMac);

        // Mask row complete: advance the current-row cursor. The
        // row's A vector must have streamed past first (this keeps
        // meta0 <= meta1, which the unsigned window arithmetic
        // relies on, and matches the physical stream order).
        prog->rule(s)
            .when(P::InputIsRowEnd)
            .when(P::Meta1GtMeta0)
            .op(OpCode::Nop)
            .meta0(mu0_inc)
            .consumeInput();

        // Own work done; keep relaying A for the rows below.
        prog->rule(s).onNoMsg().when(P::InputIsEnd).next(st::kDrain);
    }

    prog->rule(st::kDrain)
        .onMsg(kMsgAVec)
        .op(OpCode::Nop)
        .route(rt_n2s)
        .msg(mm_forward)
        .consumeMsg()
        .meta1(mu1_inc)
        .stallable();
    prog->rule(st::kDrain).onNoMsg().when(P::Meta1EqConst).next(
        st::kDone);

    prog->compile();
    return prog;
}

KernelMapping
mapSddmm(const CsrMatrix &mask, const DenseMatrix &a,
         const DenseMatrix &b, const CanonConfig &cfg)
{
    fatalIf(a.cols() != b.rows(), "mapSddmm: A is ", a.rows(), "x",
            a.cols(), " but B is ", b.rows(), "x", b.cols());
    fatalIf(mask.rows() != a.rows() || mask.cols() != b.cols(),
            "mapSddmm: mask ", mask.rows(), "x", mask.cols(),
            " does not match output ", a.rows(), "x", b.cols());
    fatalIf(a.cols() != cfg.cols * kSimdWidth, "mapSddmm: K=", a.cols(),
            " must equal cols*4=", cfg.cols * kSimdWidth);
    fatalIf(b.cols() % cfg.rows != 0, "mapSddmm: N=", b.cols(),
            " must divide by rows=", cfg.rows);
    const int h_blk = b.cols() / cfg.rows;
    fatalIf(h_blk > cfg.dmemSlots, "mapSddmm: ", h_blk,
            " output columns per row exceed data memory");
    fatalIf(a.rows() >= (1 << 14), "mapSddmm: M exceeds meta range");

    KernelMapping map;
    map.name = "sddmm";
    map.program = buildSddmmProgram(a.rows(), cfg.spadEntries);
    map.collector = CollectorKind::East;
    map.outRows = mask.rows();
    map.outCols = mask.cols();
    map.eastColsPerRow = h_blk;

    // North feed: step m delivers A[m]'s K-slice to every column.
    map.northFeed.resize(a.rows());
    for (int m = 0; m < a.rows(); ++m) {
        map.northFeed[m].resize(cfg.cols);
        for (int x = 0; x < cfg.cols; ++x)
            for (int l = 0; l < kSimdWidth; ++l)
                map.northFeed[m][x][l] =
                    a.at(m, x * kSimdWidth + l);
    }

    // Mask streams: row y sees live positions inside its column block;
    // every output row ends with a RowEnd so the row cursor tracks m.
    const auto &row_ptr = mask.rowPtr();
    const auto &col_idx = mask.colIdx();
    map.rowStreams.reserve(cfg.rows);
    for (int y = 0; y < cfg.rows; ++y) {
        const int n_lo = y * h_blk;
        const int n_hi = n_lo + h_blk;
        std::vector<MetaToken> tokens;
        for (int m = 0; m < mask.rows(); ++m) {
            for (auto i = row_ptr[m]; i < row_ptr[m + 1]; ++i) {
                const int n = col_idx[i];
                if (n >= n_lo && n < n_hi)
                    tokens.push_back(MetaToken::nnz(
                        static_cast<std::uint16_t>(n - n_lo), 0));
            }
            tokens.push_back(
                MetaToken::rowEnd(static_cast<std::uint16_t>(m)));
        }
        map.rowStreams.emplace_back(std::move(tokens));
    }

    // Data placement: PE (y, x) slot h = B[4x..4x+4)[y*h_blk + h].
    map.dmemImage.resize(cfg.rows);
    for (int y = 0; y < cfg.rows; ++y) {
        map.dmemImage[y].resize(cfg.cols);
        for (int x = 0; x < cfg.cols; ++x) {
            auto &slots = map.dmemImage[y][x];
            slots.resize(h_blk);
            for (int hh = 0; hh < h_blk; ++hh)
                for (int l = 0; l < kSimdWidth; ++l)
                    slots[hh][l] =
                        b.at(x * kSimdWidth + l, y * h_blk + hh);
        }
    }
    return map;
}

} // namespace canon
