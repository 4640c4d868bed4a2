/**
 * @file
 * Fundamental scalar and vector types shared across the simulator.
 *
 * Canon computes on INT8 operands with INT32 accumulation (Table 1 of the
 * paper). A PE's vector lane is 4 wide; Vec4 is the lane-register type.
 */

#ifndef CANON_COMMON_TYPES_HH
#define CANON_COMMON_TYPES_HH

#include <array>
#include <cstdint>
#include <ostream>

namespace canon
{

/** Simulation cycle count at the fabric clock (1 GHz in Table 1). */
using Cycle = std::uint64_t;

/** Unified PE address space word (Section 3.1): 16 bits. */
using Addr = std::uint16_t;

/** INT8 data element (matrix values). */
using Elem = std::int8_t;

/** INT32 accumulator word. */
using Word = std::int32_t;

/** SIMD width of a PE vector lane. */
constexpr int kSimdWidth = 4;

/**
 * A 4-wide INT32 vector: the value type that flows through lane
 * registers, scratchpad entries and the data NoC.
 */
struct Vec4
{
    std::array<Word, kSimdWidth> lane{0, 0, 0, 0};

    static Vec4
    splat(Word v)
    {
        return Vec4{{v, v, v, v}};
    }

    Word &operator[](int i) { return lane[static_cast<std::size_t>(i)]; }
    Word operator[](int i) const
    {
        return lane[static_cast<std::size_t>(i)];
    }

    Vec4 &
    operator+=(const Vec4 &o)
    {
        for (int i = 0; i < kSimdWidth; ++i)
            lane[i] += o.lane[i];
        return *this;
    }

    friend Vec4
    operator+(Vec4 a, const Vec4 &b)
    {
        a += b;
        return a;
    }

    friend bool
    operator==(const Vec4 &a, const Vec4 &b)
    {
        return a.lane == b.lane;
    }

    /** Lane-wise scalar multiply-accumulate: this += s * v. */
    void
    mac(Word s, const Vec4 &v)
    {
        for (int i = 0; i < kSimdWidth; ++i)
            lane[i] += s * v.lane[i];
    }

    /** Lane-wise vector multiply-accumulate: this += a * b. */
    void
    mac(const Vec4 &a, const Vec4 &b)
    {
        for (int i = 0; i < kSimdWidth; ++i)
            lane[i] += a.lane[i] * b.lane[i];
    }

    /** Horizontal sum of all lanes. */
    Word
    hsum() const
    {
        Word s = 0;
        for (int i = 0; i < kSimdWidth; ++i)
            s += lane[i];
        return s;
    }
};

inline std::ostream &
operator<<(std::ostream &os, const Vec4 &v)
{
    os << "[" << v[0] << "," << v[1] << "," << v[2] << "," << v[3] << "]";
    return os;
}

/** Cardinal directions of the 2D mesh. */
enum class Dir : std::uint8_t { North = 0, South = 1, East = 2, West = 3 };

constexpr int kNumDirs = 4;

inline const char *
dirName(Dir d)
{
    switch (d) {
      case Dir::North: return "N";
      case Dir::South: return "S";
      case Dir::East: return "E";
      case Dir::West: return "W";
    }
    return "?";
}

} // namespace canon

#endif // CANON_COMMON_TYPES_HH
