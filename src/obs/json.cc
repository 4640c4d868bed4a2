#include "obs/json.hh"

#include <ostream>

namespace canon
{
namespace obs
{

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // the key already separated this element
    }
    if (!frames_.empty()) {
        if (frames_.back())
            os_ << ',';
        frames_.back() = true;
    }
}

void
JsonWriter::escape(std::string_view s)
{
    os_ << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os_ << "\\\"";
            break;
          case '\\':
            os_ << "\\\\";
            break;
          case '\n':
            os_ << "\\n";
            break;
          case '\r':
            os_ << "\\r";
            break;
          case '\t':
            os_ << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char *hex = "0123456789abcdef";
                os_ << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os_ << c;
            }
        }
    }
    os_ << '"';
}

void
JsonWriter::beginObject()
{
    separate();
    os_ << '{';
    frames_.push_back(false);
}

void
JsonWriter::endObject()
{
    frames_.pop_back();
    os_ << '}';
}

void
JsonWriter::beginArray()
{
    separate();
    os_ << '[';
    frames_.push_back(false);
}

void
JsonWriter::endArray()
{
    frames_.pop_back();
    os_ << ']';
}

void
JsonWriter::key(std::string_view k)
{
    separate();
    escape(k);
    os_ << ':';
    pendingKey_ = true;
}

void
JsonWriter::value(const std::string &s)
{
    separate();
    escape(s);
}

void
JsonWriter::value(const char *s)
{
    value(std::string(s));
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    os_ << v;
}

void
JsonWriter::value(int v)
{
    separate();
    os_ << v;
}

} // namespace obs
} // namespace canon
