#include "cache/mode.hh"

namespace canon
{
namespace cache
{

std::string
parseMode(const std::string &text, Mode &out)
{
    if (text == "off")
        out = Mode::Off;
    else if (text == "read")
        out = Mode::Read;
    else if (text == "write")
        out = Mode::Write;
    else if (text == "readwrite")
        out = Mode::ReadWrite;
    else if (text == "refresh")
        out = Mode::Refresh;
    else
        return "option '--cache' expects off | read | write |"
               " readwrite | refresh, got '" + text + "'";
    return {};
}

} // namespace cache
} // namespace canon
