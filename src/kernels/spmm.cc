#include "kernels/spmm.hh"

#include <cmath>

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

namespace
{

/**
 * fatal(), each message prefixed with @p who, unless an A of
 * @p a_rows x @p k streams natively on @p cfg: K divides by the rows,
 * one K slice fits the data memory and M fits the 14-bit meta value.
 */
void
checkSlices(const std::string &who, int a_rows, int k,
            const CanonConfig &cfg)
{
    fatalIf(k % cfg.rows != 0, who, ": K=", k, " must divide by rows=",
            cfg.rows);
    const int h = k / cfg.rows;
    fatalIf(h > cfg.dmemSlots, who, ": B tile of ", h,
            " rows exceeds data memory (", cfg.dmemSlots, " slots)");
    fatalIf(a_rows >= (1 << 14), who, ": M=", a_rows,
            " exceeds the 14-bit meta value range");
}

} // namespace

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
    checkSlices(who, a_rows, b.rows(), cfg);
    const int h = b.rows() / cfg.rows;

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

SpmmSlicer::SpmmSlicer(int a_rows, int k, const CanonConfig &cfg,
                       double expected_nnz)
    : cfg_(cfg), aRows_(a_rows), k_(k)
{
    checkSlices("mapSpmm", a_rows, k, cfg);
    h_ = k / cfg.rows;
    // A slice's nonzero count is binomial, its variance below its
    // mean: four standard deviations of slack make regrowth rare.
    const double share = expected_nnz / cfg.rows;
    const auto reserve =
        static_cast<std::size_t>(share + 4.0 * std::sqrt(share)) +
        static_cast<std::size_t>(a_rows);
    tokens_.resize(static_cast<std::size_t>(cfg.rows));
    for (auto &t : tokens_)
        t.reserve(reserve);
}

KernelMapping
SpmmSlicer::map(const DenseMatrix &b) &&
{
    KernelMapping map = mapRowSliced("mapSpmm", "spmm", aRows_, k_, b, cfg_);
    map.program = buildSpmmProgram();
    map.rowStreams.reserve(tokens_.size());
    for (auto &t : tokens_)
        map.rowStreams.emplace_back(std::move(t));
    return map;
}

KernelMapping
mapSpmm(const CsrMatrix &a, const DenseMatrix &b, const CanonConfig &cfg)
{
    SpmmSlicer slicer(a.rows(), a.cols(), cfg,
                      static_cast<double>(a.nnz()));
    const auto &row_ptr = a.rowPtr();
    const auto &col_idx = a.colIdx();
    const auto &values = a.values();
    slicer.deal([&](int r, auto push) {
        for (auto i = row_ptr[r]; i < row_ptr[r + 1]; ++i)
            push(col_idx[i], values[i]);
    });
    return std::move(slicer).map(b);
}

} // namespace canon
