#include "kernels/spmm.hh"

namespace canon
{

std::shared_ptr<OrchProgram>
buildSpmmProgram()
{
    using P = Predicate;
    namespace as = addrspace;
    namespace st = spmm_state;

    auto prog = std::make_shared<OrchProgram>("spmm");

    // ---- condition configuration -------------------------------------
    const PredicateSet run_preds = {P::InputIsRowEnd, P::InputIsEnd,
                                    P::MsgTagManaged, P::BufferAtCap};
    prog->setPredicates(st::kMac, run_preds);
    prog->setPredicates(st::kAcc, run_preds);
    prog->setPredicates(st::kFlush, run_preds);
    prog->setPredicates(st::kDrain, {P::MsgTagManaged, P::BufferEmpty,
                                     P::False, P::False});
    prog->setPredicates(st::kDone, {P::False, P::False, P::False,
                                    P::False});

    // ---- static datapath menus ----------------------------------------
    const int am_win = prog->addAddrMode(
        AddrMode::fixed(as::portIn(Dir::West)));
    const int am_nin = prog->addAddrMode(
        AddrMode::fixed(as::portIn(Dir::North)));
    const int am_sout = prog->addAddrMode(
        AddrMode::fixed(as::portOut(Dir::South)));
    const int am_brow = prog->addAddrMode(
        AddrMode::indexed(as::kDmemBase, ValueSel::InputValue));
    const int am_tail = prog->addAddrMode(AddrMode::spadTail());
    const int am_head = prog->addAddrMode(AddrMode::spadHead());
    const int am_search = prog->addAddrMode(AddrMode::spadSearch());

    const int rt_w2e = prog->addRouteMode(kRouteW2E);
    const int rt_n2s = prog->addRouteMode(kRouteN2S);
    const int rt_both = prog->addRouteMode(kRouteW2E | kRouteN2S);

    const int mm_psum_head =
        prog->addMsgMode(MsgMode::emit(kMsgPsum, ValueSel::HeadTag));
    const int mm_forward = prog->addMsgMode(MsgMode::forward());

    prog->setTagSel(ValueSel::InputValue); // RowEnd carries the RID
    prog->setMergeMsgId(kMsgPsum); // psums merge against the queue
    prog->setInitialState(st::kMac);
    prog->setDoneState(st::kDone);

    // ---- microcode (the decision tree of Figure 8) --------------------
    for (std::uint8_t s : {st::kMac, st::kAcc, st::kFlush}) {
        // 1.1  psum from the north for a managed row: accumulate.
        prog->rule(s)
            .onMsg(kMsgPsum)
            .when(P::MsgTagManaged)
            .op(OpCode::VAdd)
            .op1(am_search)
            .op2(am_nin)
            .res(am_search)
            .consumeMsg()
            .next(st::kAcc);

        // 1.2a unmanaged psum while input is a non-zero: bypass the
        //      psum north->south *and* keep MACing (Appendix C case 3).
        prog->rule(s)
            .onMsg(kMsgPsum)
            .whenNot(P::MsgTagManaged)
            .whenNot(P::InputIsRowEnd)
            .whenNot(P::InputIsEnd)
            .op(OpCode::SvMac)
            .op1(am_win)
            .op2(am_brow)
            .res(am_tail)
            .route(rt_both)
            .msg(mm_forward)
            .consumeMsg()
            .consumeInput()
            .westFeed(WestFeed::TokenData)
            .stallable()
            .next(st::kMac);

        // 1.2b unmanaged psum at a row boundary: bypass only, defer
        //      the row-end handling one cycle.
        prog->rule(s)
            .onMsg(kMsgPsum)
            .whenNot(P::MsgTagManaged)
            .op(OpCode::Nop)
            .route(rt_n2s)
            .msg(mm_forward)
            .consumeMsg()
            .stallable();

        // 2.2  plain MAC on the next non-zero.
        prog->rule(s)
            .onNoMsg()
            .whenNot(P::InputIsRowEnd)
            .whenNot(P::InputIsEnd)
            .op(OpCode::SvMac)
            .op1(am_win)
            .op2(am_brow)
            .res(am_tail)
            .route(rt_w2e)
            .consumeInput()
            .westFeed(WestFeed::TokenData)
            .next(st::kMac);

        // 2.1a row end with a full context: flush the oldest psum
        //      south and recycle its slot for the row just finished.
        prog->rule(s)
            .onNoMsg()
            .when(P::InputIsRowEnd)
            .when(P::BufferAtCap)
            .op(OpCode::VFlush)
            .op1(am_head)
            .res(am_sout)
            .buffer(BufferOp::PushPop)
            .msg(mm_psum_head)
            .consumeInput()
            .stallable()
            .next(st::kFlush);

        // 2.1b row end with room: just manage the new psum.
        prog->rule(s)
            .onNoMsg()
            .when(P::InputIsRowEnd)
            .whenNot(P::BufferAtCap)
            .op(OpCode::Nop)
            .buffer(BufferOp::Push)
            .consumeInput()
            .next(st::kMac);

        // End of stream: drain the remaining context.
        prog->rule(s)
            .onNoMsg()
            .when(P::InputIsEnd)
            .next(st::kDrain);
    }

    // DRAIN: keep merging/bypassing, flush out the context queue.
    prog->rule(st::kDrain)
        .onMsg(kMsgPsum)
        .when(P::MsgTagManaged)
        .op(OpCode::VAdd)
        .op1(am_search)
        .op2(am_nin)
        .res(am_search)
        .consumeMsg();
    prog->rule(st::kDrain)
        .onMsg(kMsgPsum)
        .whenNot(P::MsgTagManaged)
        .op(OpCode::Nop)
        .route(rt_n2s)
        .msg(mm_forward)
        .consumeMsg()
        .stallable();
    prog->rule(st::kDrain)
        .onNoMsg()
        .whenNot(P::BufferEmpty)
        .op(OpCode::VFlush)
        .op1(am_head)
        .res(am_sout)
        .buffer(BufferOp::Pop)
        .msg(mm_psum_head)
        .stallable();
    prog->rule(st::kDrain).onNoMsg().when(P::BufferEmpty).next(
        st::kDone);

    // DONE: nothing left locally; relay any psums still coming from
    // the north so upstream rows can finish draining.
    prog->rule(st::kDone)
        .onMsg(kMsgPsum)
        .op(OpCode::Nop)
        .route(rt_n2s)
        .msg(mm_forward)
        .consumeMsg()
        .stallable();

    prog->compile();
    return prog;
}

KernelMapping
mapRowSliced(const std::string &who, const std::string &name,
             int a_rows, int a_cols, const DenseMatrix &b,
             const CanonConfig &cfg)
{
    fatalIf(a_cols != b.rows(), who, ": A is ", a_rows, "x", a_cols,
            " but B is ", b.rows(), "x", b.cols());
    fatalIf(b.cols() != cfg.cols * kSimdWidth, who, ": N=", b.cols(),
            " must equal cols*4=", cfg.cols * kSimdWidth,
            " (tile wider problems over multiple passes)");
    fatalIf(b.rows() % cfg.rows != 0, who, ": K=", b.rows(),
            " must divide by rows=", cfg.rows);
    const int h = b.rows() / cfg.rows;
    fatalIf(h > cfg.dmemSlots, who, ": B tile of ", h,
            " rows exceeds data memory (", cfg.dmemSlots, " slots)");
    fatalIf(a_rows >= (1 << 14), who, ": M=", a_rows,
            " exceeds the 14-bit meta value range");

    KernelMapping map;
    map.name = name;
    map.collector = CollectorKind::South;
    map.outRows = a_rows;
    map.outCols = b.cols();

    // Data placement: PE (y, x) holds B[y*H + h][4x .. 4x+4).
    map.dmemImage.resize(cfg.rows);
    for (int y = 0; y < cfg.rows; ++y) {
        map.dmemImage[y].resize(cfg.cols);
        for (int x = 0; x < cfg.cols; ++x) {
            auto &slots = map.dmemImage[y][x];
            slots.resize(h);
            for (int hh = 0; hh < h; ++hh)
                for (int l = 0; l < kSimdWidth; ++l)
                    slots[hh][l] =
                        b.at(y * h + hh, x * kSimdWidth + l);
        }
    }
    return map;
}

KernelMapping
mapSpmm(const CsrMatrix &a, const DenseMatrix &b, const CanonConfig &cfg)
{
    KernelMapping map =
        mapRowSliced("mapSpmm", "spmm", a.rows(), a.cols(), b, cfg);
    map.program = buildSpmmProgram();
    const int h = b.rows() / cfg.rows;

    // Meta streams: orchestrator y sees the non-zeros of its K-slice,
    // each row that has any closed by a RowEnd. One pass over A deals
    // every nonzero to its slice's stream; the slices a row touched
    // then get their RowEnds, so each stream stays in row order.
    const auto &row_ptr = a.rowPtr();
    const auto &col_idx = a.colIdx();
    const auto &values = a.values();
    std::vector<std::vector<MetaToken>> tokens(cfg.rows);
    std::vector<int> touched; // slices the current row reached
    std::vector<int> last_row(cfg.rows, -1);
    for (int m = 0; m < a.rows(); ++m) {
        for (auto i = row_ptr[m]; i < row_ptr[m + 1]; ++i) {
            const int y = col_idx[i] / h;
            if (last_row[y] != m) {
                last_row[y] = m;
                touched.push_back(y);
            }
            tokens[y].push_back(MetaToken::nnz(
                static_cast<std::uint16_t>(col_idx[i] - y * h),
                values[i]));
        }
        for (const int y : touched)
            tokens[y].push_back(
                MetaToken::rowEnd(static_cast<std::uint16_t>(m)));
        touched.clear();
    }
    map.rowStreams.reserve(cfg.rows);
    for (auto &t : tokens)
        map.rowStreams.emplace_back(std::move(t));
    return map;
}

} // namespace canon
