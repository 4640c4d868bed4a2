#include "mem/main_memory.hh"

namespace canon
{

MemoryDevice
lpddr5x16()
{
    return {"LPDDR5X 16x", 17.0};
}

} // namespace canon
