#include "orch/lut.hh"

#include "common/bitfield.hh"

namespace canon
{

namespace
{

// Bit layout of the 48-bit output word (LSB-0).
constexpr int kNextStateLo = 0;  // 3b
constexpr int kPeOpLo = 3;       // 3b
constexpr int kOp1ModeLo = 6;    // 4b
constexpr int kOp2ModeLo = 10;   // 4b
constexpr int kResModeLo = 14;   // 4b
constexpr int kRouteModeLo = 18; // 2b
constexpr int kMsgModeLo = 20;   // 2b
constexpr int kBufferOpLo = 22;  // 2b
constexpr int kMetaUpd0Lo = 24;  // 2b
constexpr int kMetaUpd1Lo = 26;  // 2b
constexpr int kConsumeInputBit = 28;
constexpr int kConsumeMsgBit = 29;
constexpr int kWestFeedLo = 30;  // 2b
constexpr int kEmitOutRecBit = 32;
constexpr int kStallableBit = 33;

} // namespace

std::uint64_t
packOutput(const OutputFields &f)
{
    std::uint64_t w = 0;
    w = insertBits(w, kNextStateLo + 2, kNextStateLo, f.nextState);
    w = insertBits(w, kPeOpLo + 2, kPeOpLo,
                   static_cast<std::uint64_t>(f.peOp));
    w = insertBits(w, kOp1ModeLo + 3, kOp1ModeLo, f.op1Mode);
    w = insertBits(w, kOp2ModeLo + 3, kOp2ModeLo, f.op2Mode);
    w = insertBits(w, kResModeLo + 3, kResModeLo, f.resMode);
    w = insertBits(w, kRouteModeLo + 1, kRouteModeLo, f.routeMode);
    w = insertBits(w, kMsgModeLo + 1, kMsgModeLo, f.msgMode);
    w = insertBits(w, kBufferOpLo + 1, kBufferOpLo,
                   static_cast<std::uint64_t>(f.bufferOp));
    w = insertBits(w, kMetaUpd0Lo + 1, kMetaUpd0Lo, f.metaUpd0);
    w = insertBits(w, kMetaUpd1Lo + 1, kMetaUpd1Lo, f.metaUpd1);
    w = insertBits(w, kConsumeInputBit, kConsumeInputBit,
                   f.consumeInput ? 1 : 0);
    w = insertBits(w, kConsumeMsgBit, kConsumeMsgBit,
                   f.consumeMsg ? 1 : 0);
    w = insertBits(w, kWestFeedLo + 1, kWestFeedLo,
                   static_cast<std::uint64_t>(f.westFeed));
    w = insertBits(w, kEmitOutRecBit, kEmitOutRecBit,
                   f.emitOutRec ? 1 : 0);
    w = insertBits(w, kStallableBit, kStallableBit, f.stallable ? 1 : 0);
    return w;
}

void
FsmLut::set(std::uint16_t index, const OutputFields &f)
{
    panicIf(index >= kLutEntries, "FsmLut: index ", index, " out of ",
            kLutEntries);
    (void)packOutput(f); // panics when a field overflows its bits
    decoded_[index] = f;
}

} // namespace canon
