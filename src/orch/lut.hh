/**
 * @file
 * The orchestrator's programmable-logic LUT (Section 3.2).
 *
 * 2^10 entries x 48 bits = 6 KB of SRAM, addressed by
 *
 *   index = state(3) | msgId(3) | condBits(4)
 *
 * and prefilled before kernel execution from a bitstream. The
 * simulator keeps the entries decoded, as OutputFields; packOutput()
 * places each field in its slot of the 48-bit hardware word and panics
 * when a value overflows its bits, which is what set() checks.
 */

#ifndef CANON_ORCH_LUT_HH
#define CANON_ORCH_LUT_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "orch/config.hh"

namespace canon
{

/** Pack the semantic fields into the 48-bit LUT word. */
std::uint64_t packOutput(const OutputFields &f);

/** Compose a LUT index from the condition inputs. */
inline std::uint16_t
lutIndex(std::uint8_t state, std::uint8_t msg_id, std::uint8_t cond_bits)
{
    panicIf(state >= kNumFsmStates, "lutIndex: state ", state,
            " out of range");
    panicIf(msg_id >= 8, "lutIndex: msgId ", msg_id, " out of range");
    panicIf(cond_bits >= (1 << kNumCondBits), "lutIndex: cond bits ",
            cond_bits, " out of range");
    return static_cast<std::uint16_t>((state << 7) | (msg_id << 4) |
                                      cond_bits);
}

class FsmLut
{
  public:
    const OutputFields &
    lookup(std::uint16_t index) const
    {
        return decoded_[index];
    }

    void set(std::uint16_t index, const OutputFields &f);

    /** Size of the bitstream image in bytes (6 KB). */
    static constexpr std::size_t
    bitstreamBytes()
    {
        return static_cast<std::size_t>(kLutEntries) * kLutWordBits / 8;
    }

  private:
    std::array<OutputFields, kLutEntries> decoded_{};
};

} // namespace canon

#endif // CANON_ORCH_LUT_HH
