/**
 * @file
 * Off-chip memory devices.
 *
 * The paper's configuration uses LPDDR5x at 17 GB/s (single-die x16,
 * Table 1). The fabric simulators record the bytes they move
 * (offchipBytes); Figure 16 turns those into required bandwidth.
 */

#ifndef CANON_MEM_MAIN_MEMORY_HH
#define CANON_MEM_MAIN_MEMORY_HH

#include <string>

namespace canon
{

struct MemoryDevice
{
    std::string name;
    double bandwidthGBps;
};

/** LPDDR5x single-die x16 (Table 1 configuration). */
MemoryDevice lpddr5x16();

} // namespace canon

#endif // CANON_MEM_MAIN_MEMORY_HH
