/**
 * @file
 * A fixed-shape log2-bucket histogram for occupancy and search-length
 * distributions.
 *
 * The bucket scheme is deliberately rigid: bucket 0 counts exact
 * zeros, bucket k (k >= 1) counts values in [2^(k-1), 2^k), and the
 * last bucket additionally absorbs everything at or above its lower
 * bound. No configuration, no resizing, no floating point -- the
 * emitted counts are a pure function of the recorded value sequence,
 * which is what keeps histogram artifacts byte-identical across
 * --jobs values and tick-order shuffles.
 */

#ifndef CANON_OBS_HIST_HH
#define CANON_OBS_HIST_HH

#include <array>
#include <cstdint>
#include <string>

namespace canon
{
namespace obs
{

class Histogram
{
  public:
    /**
     * 17 buckets: {0}, [1,2), [2,4), ... [32768, inf). Channel
     * occupancies are tiny; tag-buffer depths reach the thousands
     * under the lifted proxy-row caps, so the top bucket is comfort
     * headroom, not an expected landing spot.
     */
    static constexpr int kBuckets = 17;

    /** Bucket index for @p v (overflow clamps to the last bucket). */
    static int bucketOf(std::uint64_t v);

    void
    record(std::uint64_t v)
    {
        ++counts_[static_cast<std::size_t>(bucketOf(v))];
        ++samples_;
    }

    std::uint64_t samples() const { return samples_; }
    const std::array<std::uint64_t, kBuckets> &counts() const
    {
        return counts_;
    }

    friend bool
    operator==(const Histogram &a, const Histogram &b)
    {
        return a.samples_ == b.samples_ && a.counts_ == b.counts_;
    }

  private:
    std::uint64_t samples_ = 0;
    std::array<std::uint64_t, kBuckets> counts_{};
};

/** One named histogram of one component (mirrors Series labelling). */
struct HistogramOut
{
    std::string metric;    //!< e.g. "occupancy", "tagDepth"
    std::string component; //!< e.g. "vert", "msg", "orch3"
    Histogram hist;

    friend bool
    operator==(const HistogramOut &a, const HistogramOut &b)
    {
        return a.metric == b.metric && a.component == b.component &&
               a.hist == b.hist;
    }
};

} // namespace obs
} // namespace canon

#endif // CANON_OBS_HIST_HH
