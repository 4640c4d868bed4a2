/**
 * @file
 * The architecture-independent execution record: cycles plus typed
 * activity counters. Every simulator/model in this repository (Canon
 * fabric, systolic array, ZeD, CGRA) produces an ExecutionProfile;
 * the energy model converts it to joules/watts, and the benches
 * combine both into the paper's figures.
 *
 * The counters are a closed set, one Activity each (documented at the
 * enumerators). A profile stores them in a fixed array plus a
 * presence mask: a counter a producer added, even with 0, is present,
 * one it never touched is absent and reads 0. Presence is what the
 * cache payload's "activity N" line and --stats-json list, so the
 * mask is part of a profile's value.
 */

#ifndef CANON_POWER_PROFILE_HH
#define CANON_POWER_PROFILE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace canon
{

/**
 * One architectural event an ExecutionProfile counts. The enumerators
 * are declared in the ASCII order of their names (activityName), so
 * index order is the order a std::map<std::string, ...> keyed by the
 * names would visit them, which is the order the cache payload and
 * --stats-json write them in.
 */
enum class Activity : std::uint8_t
{
    AluOps,           //!< non-MAC vector ALU lane operations
    BufferSearches,   //!< associative psum-tag probes
    CrossbarXfers,    //!< crossbar distribution transfers (ZeD)
    DecodeOps,        //!< sparse-format decode operations (ZeD)
    DmemReads,        //!< per-PE data memory vector reads
    DmemWrites,       //!< per-PE data memory vector writes
    EdgeSramReads,    //!< shared edge-SRAM word reads
    EdgeSramWrites,   //!< shared edge-SRAM word writes
    InstFetches,      //!< per-PE instruction memory fetches (CGRA)
    InstHops,         //!< instruction NoC hops
    LaneMacs,         //!< INT8 multiply-accumulate lane operations
    LutLookups,       //!< orchestrator LUT reads
    MacSlots,         //!< energy-active MAC slots, padding included
                      //!< (systolic models)
    NmSelectOps,      //!< 2:4 metadata mux lane selects (systolic 2:4)
    OffchipBytes,     //!< main-memory traffic in bytes
    OrchCycles,       //!< orchestrator active cycles
    RegReads,         //!< SIMD register file reads
    RegWrites,        //!< SIMD register file writes
    RouterHops,       //!< circuit-switched NoC vector transfers
    ShiftOps,         //!< systolic A/psum register-chain shifts
    SpadCapCycles,    //!< orchestrator-cycles at the resident-row cap
    SpadReads,        //!< scratchpad vector reads
    SpadResidentSum,  //!< resident rows summed over orchestrator-cycles
    SpadWrites,       //!< scratchpad vector writes
    StateTransitions, //!< data-driven FSM transitions (Figure 11)
    TagCompares,      //!< tag comparisons inside buffer searches
};

inline constexpr std::size_t kActivityCount = 26;

/**
 * Each Activity's name, by index. Strictly ascending (ASCII), which
 * Payload.ActivityNamesAscendAndNameEveryCounter pins: the order is
 * the cache payload's, and activityByName searches it.
 */
inline constexpr std::array<std::string_view, kActivityCount>
    kActivityNames = {
        "aluOps",         "bufferSearches",  "crossbarXfers",
        "decodeOps",      "dmemReads",       "dmemWrites",
        "edgeSramReads",  "edgeSramWrites",  "instFetches",
        "instHops",       "laneMacs",        "lutLookups",
        "macSlots",       "nmSelectOps",     "offchipBytes",
        "orchCycles",     "regReads",        "regWrites",
        "routerHops",     "shiftOps",        "spadCapCycles",
        "spadReads",      "spadResidentSum", "spadWrites",
        "stateTransitions", "tagCompares",
};

static_assert(static_cast<std::size_t>(Activity::TagCompares) + 1 ==
              kActivityCount);

/** The counter's name: the payload, --stats-json and test spelling. */
constexpr std::string_view
activityName(Activity a)
{
    return kActivityNames[static_cast<std::size_t>(a)];
}

/** The Activity named @p name; nullopt for any other text. */
constexpr std::optional<Activity>
activityByName(std::string_view name)
{
    const auto it = std::lower_bound(kActivityNames.begin(),
                                     kActivityNames.end(), name);
    if (it == kActivityNames.end() || *it != name)
        return std::nullopt;
    return static_cast<Activity>(it - kActivityNames.begin());
}

/** The activity counters of one profile: values plus presence. */
struct ActivityCounts
{
    std::array<std::uint64_t, kActivityCount> value{};
    std::uint32_t present = 0; //!< bit i: Activity i was added

    static_assert(kActivityCount <= 32);

    bool operator==(const ActivityCounts &) const = default;
};

struct ExecutionProfile
{
    std::string workload;
    std::uint64_t cycles = 0;
    std::uint64_t peCount = 0; //!< for leakage/idle accounting
    ActivityCounts activity;

    /** The counter's value; 0 when absent. */
    std::uint64_t
    get(Activity a) const
    {
        return activity.value[index(a)];
    }

    bool
    has(Activity a) const
    {
        return (activity.present >> index(a) & 1u) != 0;
    }

    /** Add @p n to the counter and mark it present (also for 0). */
    void
    add(Activity a, std::uint64_t n)
    {
        activity.value[index(a)] += n;
        activity.present |= bit(a);
    }

    /** Drop the counter: absent again, reads 0. */
    void
    erase(Activity a)
    {
        activity.value[index(a)] = 0;
        activity.present &= ~bit(a);
    }

    /** Number of present counters. */
    std::size_t
    activityCount() const
    {
        return static_cast<std::size_t>(std::popcount(activity.present));
    }

    /** Call @p fn(Activity, value) for each present counter, in order. */
    template <typename Fn>
    void
    forEachActivity(Fn &&fn) const
    {
        for (std::size_t i = 0; i < kActivityCount; ++i)
            if ((activity.present >> i & 1u) != 0)
                fn(static_cast<Activity>(i), activity.value[i]);
    }

    /** Accumulate another profile (multi-pass tiling, model sums). */
    void
    accumulate(const ExecutionProfile &o)
    {
        cycles += o.cycles;
        for (std::size_t i = 0; i < kActivityCount; ++i)
            activity.value[i] += o.activity.value[i];
        activity.present |= o.activity.present;
    }

    /** Scale cycles and every present counter by a replication factor. */
    void
    scale(double f)
    {
        cycles = static_cast<std::uint64_t>(
            static_cast<double>(cycles) * f);
        for (std::size_t i = 0; i < kActivityCount; ++i) {
            if ((activity.present >> i & 1u) == 0)
                continue;
            std::uint64_t &v = activity.value[i];
            v = static_cast<std::uint64_t>(static_cast<double>(v) * f);
        }
    }

    /** Lane-MAC utilization against @p lanes_total lanes. */
    double
    utilization(std::uint64_t lanes_total) const
    {
        if (cycles == 0 || lanes_total == 0)
            return 0.0;
        return static_cast<double>(get(Activity::LaneMacs)) /
               (static_cast<double>(cycles) *
                static_cast<double>(lanes_total));
    }

  private:
    static constexpr std::size_t
    index(Activity a)
    {
        return static_cast<std::size_t>(a);
    }

    static constexpr std::uint32_t
    bit(Activity a)
    {
        return std::uint32_t{1} << index(a);
    }
};

} // namespace canon

#endif // CANON_POWER_PROFILE_HH
