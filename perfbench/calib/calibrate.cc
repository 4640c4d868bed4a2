/*
 * Host-speed calibration kernel for the benchmark.
 *
 * A toy cycle loop shaped like the simulator's: a ring of cells, each
 * with a small FIFO, each cycle popping one value, folding it into an
 * accumulator and pushing to a neighbour. The benchmark times it (in
 * CPU seconds) between its own operations; on a shared host this code
 * slows down and speeds up with the simulator, so the ratio of the two
 * is much steadier than either. It does not depend on the program
 * being measured, so a change to the program cannot move it.
 *
 * Usage: calibrate [CYCLES]   (prints a checksum)
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace
{

struct Cell
{
    std::uint32_t fifo[8] = {};
    std::uint32_t head = 0, tail = 0, acc = 1, busy = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const int cycles = argc > 1 ? std::atoi(argv[1]) : 6000;
    const int n = 1024;
    std::vector<Cell> cells(n);
    std::uint32_t x = 12345;
    for (int c = 0; c < cycles; ++c) {
        for (int i = 0; i < n; ++i) {
            Cell &a = cells[i];
            Cell &b = cells[(i * 7 + 1) % n];
            x = x * 1103515245u + 12345u;
            if (a.tail != a.head) {
                a.acc = a.acc * 31 + a.fifo[a.head++ & 7];
                if ((x >> 16) & 1)
                    ++a.busy;
            }
            if (b.tail - b.head < 8 && (x & 3))
                b.fifo[b.tail++ & 7] = a.acc ^ x;
        }
    }
    std::uint64_t sum = 0;
    for (const Cell &c : cells)
        sum += c.acc + c.busy;
    std::printf("%llu\n", static_cast<unsigned long long>(sum));
    return 0;
}
