#include "obs/hist.hh"

namespace canon
{
namespace obs
{

int
Histogram::bucketOf(std::uint64_t v)
{
    if (v == 0)
        return 0;
    int b = 1;
    while (v > 1 && b < kBuckets - 1) {
        v >>= 1;
        ++b;
    }
    return b;
}

} // namespace obs
} // namespace canon
