#include "isa/address_space.hh"

namespace canon
{
namespace addrspace
{

std::string
toString(Addr a)
{
    const auto off = std::to_string(offset(a));
    switch (region(a)) {
      case AddrRegion::Dmem:
        return "DMEM[" + off + "]";
      case AddrRegion::Spad:
        return "SPAD[" + off + "]";
      case AddrRegion::Reg:
        return "R" + off;
      case AddrRegion::PortIn:
        return std::string(dirName(static_cast<Dir>(offset(a)))) + "_IN";
      case AddrRegion::PortOut:
        return std::string(dirName(static_cast<Dir>(offset(a)))) + "_OUT";
      case AddrRegion::Zero:
        return "ZERO";
      case AddrRegion::Null:
        return "NULL";
      case AddrRegion::Invalid:
        break;
    }
    return "INVALID(0x" + std::to_string(a) + ")";
}

} // namespace addrspace
} // namespace canon
