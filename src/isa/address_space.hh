/**
 * @file
 * The unified PE address space (Section 3.1).
 *
 * "To simplify the instruction format, the scratchpad, data memory,
 *  router, and SIMD registers share a unified address space. The
 *  specific memory accessed or NoC switching action is inferred from
 *  the address."
 *
 * Layout (16-bit addresses, vector-granular):
 *
 *   0x0000 .. 0x03FF   data memory, 1024 x Vec4<Elem>  (4 KB)
 *   0x0400 .. 0x04FF   scratchpad entries (up to 256)
 *   0x0500 .. 0x050F   SIMD vector registers R0..R15
 *   0x0510 .. 0x0513   router input ports  (N, S, E, W)
 *   0x0520 .. 0x0523   router output ports (N, S, E, W)
 *   0x05F0             ZERO: reads as the zero vector
 *   0x05FF             NULL: writes are discarded, reads are invalid
 */

#ifndef CANON_ISA_ADDRESS_SPACE_HH
#define CANON_ISA_ADDRESS_SPACE_HH

#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace canon
{

enum class AddrRegion : std::uint8_t
{
    Dmem,
    Spad,
    Reg,
    PortIn,
    PortOut,
    Zero,
    Null,
    Invalid
};

namespace addrspace
{

constexpr Addr kDmemBase = 0x0000;
constexpr Addr kDmemSize = 0x0400; // vec slots
constexpr Addr kSpadBase = 0x0400;
constexpr Addr kSpadSize = 0x0100;
constexpr Addr kRegBase = 0x0500;
constexpr Addr kRegSize = 0x0010;
constexpr Addr kPortInBase = 0x0510;
constexpr Addr kPortOutBase = 0x0520;
constexpr Addr kZeroAddr = 0x05F0;
constexpr Addr kNullAddr = 0x05FF;

} // namespace addrspace

/**
 * An operand address decoded into the memory or port it names. The
 * raw address stays alongside: forwarding compares addresses, and
 * panic text prints them.
 */
struct Operand
{
    Addr addr = addrspace::kNullAddr;
    AddrRegion region = AddrRegion::Null;
    Addr offset = 0;

    friend constexpr bool operator==(const Operand &,
                                     const Operand &) = default;
};

namespace addrspace
{

/** Classify an address. */
constexpr AddrRegion
region(Addr a)
{
    if (a < kDmemBase + kDmemSize)
        return AddrRegion::Dmem;
    if (a >= kSpadBase && a < kSpadBase + kSpadSize)
        return AddrRegion::Spad;
    if (a >= kRegBase && a < kRegBase + kRegSize)
        return AddrRegion::Reg;
    if (a >= kPortInBase && a < kPortInBase + kNumDirs)
        return AddrRegion::PortIn;
    if (a >= kPortOutBase && a < kPortOutBase + kNumDirs)
        return AddrRegion::PortOut;
    if (a == kZeroAddr)
        return AddrRegion::Zero;
    if (a == kNullAddr)
        return AddrRegion::Null;
    return AddrRegion::Invalid;
}

/** Offset of @p a within its region (slot index / register number). */
constexpr Addr
offset(Addr a)
{
    switch (region(a)) {
      case AddrRegion::Dmem:
        return static_cast<Addr>(a - kDmemBase);
      case AddrRegion::Spad:
        return static_cast<Addr>(a - kSpadBase);
      case AddrRegion::Reg:
        return static_cast<Addr>(a - kRegBase);
      case AddrRegion::PortIn:
        return static_cast<Addr>(a - kPortInBase);
      case AddrRegion::PortOut:
        return static_cast<Addr>(a - kPortOutBase);
      default:
        return 0;
    }
}

/** Classify @p a once: its region and offset, with the raw address. */
constexpr Operand
decode(Addr a)
{
    return Operand{a, region(a), offset(a)};
}

inline Addr
dmem(int slot)
{
    panicIf(slot < 0 || slot >= kDmemSize, "dmem slot ", slot,
            " out of range");
    return static_cast<Addr>(kDmemBase + slot);
}

inline Addr
spad(int entry)
{
    panicIf(entry < 0 || entry >= kSpadSize, "spad entry ", entry,
            " out of range");
    return static_cast<Addr>(kSpadBase + entry);
}

inline Addr
reg(int r)
{
    panicIf(r < 0 || r >= kRegSize, "register ", r, " out of range");
    return static_cast<Addr>(kRegBase + r);
}

inline Addr
portIn(Dir d)
{
    return static_cast<Addr>(kPortInBase + static_cast<int>(d));
}

inline Addr
portOut(Dir d)
{
    return static_cast<Addr>(kPortOutBase + static_cast<int>(d));
}

/** Human-readable form, e.g. "DMEM[12]", "S_OUT", "R3". */
std::string toString(Addr a);

} // namespace addrspace
} // namespace canon

#endif // CANON_ISA_ADDRESS_SPACE_HH
