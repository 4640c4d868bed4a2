/**
 * @file
 * The architectures of the paper's evaluation (Section 5, Figures
 * 12-14), declared once: Canon's cycle simulation and the four
 * baseline models. Every reader of the architecture axis goes through
 * this table; a name is a string only where it is spoken (argv,
 * requests, cache text, rendered tables).
 */

#ifndef CANON_WORKLOADS_ARCH_HH
#define CANON_WORKLOADS_ARCH_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string_view>

namespace canon
{

/** One architecture; the enumerator order is the display order. */
enum class Arch : std::uint8_t
{
    Canon,      //!< the orchestrated PE fabric, cycle-simulated
    Systolic,   //!< 16x16 dense systolic array
    Systolic24, //!< the same array with 2:4 structured sparsity
    Zed,        //!< ZeD, row-granular unstructured sparsity
    Cgra,       //!< a statically scheduled CGRA
};

inline constexpr std::size_t kArchCount = 5;

struct ArchInfo
{
    Arch arch;
    const char *name;  //!< the CLI, cache and stats-table spelling
    const char *label; //!< the figure-header spelling
};

/** One row per Arch, in enumerator (display) order. */
inline constexpr std::array<ArchInfo, kArchCount> kArchTable = {{
    {Arch::Canon, "canon", "Canon"},
    {Arch::Systolic, "systolic", "Systolic"},
    {Arch::Systolic24, "systolic24", "Systolic(2:4)"},
    {Arch::Zed, "zed", "ZeD"},
    {Arch::Cgra, "cgra", "CGRA"},
}};

constexpr const char *
archName(Arch a)
{
    return kArchTable[static_cast<std::size_t>(a)].name;
}

constexpr const char *
archLabel(Arch a)
{
    return kArchTable[static_cast<std::size_t>(a)].label;
}

/** The Arch named @p name; nullopt for any other text. */
constexpr std::optional<Arch>
archByName(std::string_view name)
{
    for (const ArchInfo &row : kArchTable)
        if (name == row.name)
            return row.arch;
    return std::nullopt;
}

/** Every Arch in name order: the cache key's and payload's order. */
inline constexpr std::array<Arch, kArchCount> kArchesByName = [] {
    std::array<Arch, kArchCount> order{};
    for (std::size_t i = 0; i < kArchCount; ++i)
        order[i] = kArchTable[i].arch;
    std::sort(order.begin(), order.end(), [](Arch a, Arch b) {
        return std::string_view(archName(a)) < archName(b);
    });
    return order;
}();

/** A selection of architectures. */
class ArchSet
{
  public:
    constexpr ArchSet(std::initializer_list<Arch> archs)
    {
        for (Arch a : archs)
            insert(a);
    }

    static constexpr ArchSet
    all()
    {
        ArchSet s{};
        for (const ArchInfo &row : kArchTable)
            s.insert(row.arch);
        return s;
    }

    constexpr bool contains(Arch a) const { return bits_ >> bit(a) & 1; }
    constexpr void insert(Arch a) { bits_ |= 1u << bit(a); }
    constexpr bool empty() const { return bits_ == 0; }

  private:
    static constexpr unsigned bit(Arch a) { return static_cast<unsigned>(a); }

    unsigned bits_ = 0;
};

} // namespace canon

#endif // CANON_WORKLOADS_ARCH_HH
