/**
 * @file
 * Meta-data tokens and streams.
 *
 * The orchestrator's runtime inputs are a stream of 16-bit meta words
 * ("Input Meta Register") whose interpretation is defined by the kernel
 * program, not the hardware (Section 3.2). We model a meta word as a
 * 2-bit kind plus a 14-bit value; the kinds below are the conventions
 * used by the kernel programs in src/kernels:
 *
 *   Nnz(value)    - a non-zero element coordinate (SpMM: local column
 *                   of B / row of the PE's tile; SDDMM: a live mask
 *                   position). Carries the INT8 payload fed to the
 *                   row's west edge.
 *   RowEnd(value) - end of output row `value` (SpMM) / end of a mask
 *                   row (SDDMM).
 *   Aux(value)    - kernel-specific (SDDMM: "a new A vector arrives";
 *                   also produced implicitly before a stream's start
 *                   cycle to realize compile-time skew).
 *   End           - stream exhausted; peeking past the end keeps
 *                   returning End so drain states can rely on it.
 */

#ifndef CANON_ORCH_TOKEN_HH
#define CANON_ORCH_TOKEN_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace canon
{

enum class TokenKind : std::uint8_t
{
    Nnz = 0,
    RowEnd = 1,
    End = 2,
    Aux = 3,
};

struct MetaToken
{
    TokenKind kind = TokenKind::End;
    std::uint16_t value = 0; //!< 14-bit meta value (CID / RID / aux)
    Elem data = 0;           //!< payload for the west data edge

    static MetaToken
    nnz(std::uint16_t coord, Elem payload)
    {
        return {TokenKind::Nnz, coord, payload};
    }

    static MetaToken
    rowEnd(std::uint16_t rid)
    {
        return {TokenKind::RowEnd, rid, 0};
    }

    static MetaToken
    aux(std::uint16_t v = 0)
    {
        return {TokenKind::Aux, v, 0};
    }

    static MetaToken end() { return {}; }
};

/**
 * The per-orchestrator meta-data input stream, produced by the EDDO
 * memory movers from the kernel's sparse structure. The start cycle
 * gives compile-time skew (the systolic alignment used by the
 * dense/N:M programs).
 */
class MetaStream
{
  public:
    MetaStream() = default;

    explicit MetaStream(std::vector<MetaToken> tokens,
                        Cycle start_cycle = 0)
        : tokens_(std::move(tokens)), startCycle_(start_cycle)
    {
        for (const auto &t : tokens_)
            panicIf(t.kind == TokenKind::End,
                    "MetaStream: explicit End token (End is implicit)");
        panicIf(!tokens_.empty() &&
                    tokens_.back().kind == TokenKind::End,
                "MetaStream: trailing End");
    }

    /** Token visible at cycle @p now; Aux before start, End after. */
    MetaToken
    peek(Cycle now) const
    {
        if (now < startCycle_)
            return MetaToken::aux();
        if (pos_ >= tokens_.size())
            return MetaToken::end();
        return tokens_[pos_];
    }

    void
    advance()
    {
        if (pos_ < tokens_.size())
            ++pos_;
    }

    void
    reset()
    {
        pos_ = 0;
    }

  private:
    std::vector<MetaToken> tokens_;
    std::size_t pos_ = 0;
    Cycle startCycle_ = 0;
};

} // namespace canon

#endif // CANON_ORCH_TOKEN_HH
