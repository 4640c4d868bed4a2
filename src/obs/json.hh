/**
 * @file
 * A minimal streaming JSON writer -- the repo takes no third-party
 * dependencies, and the obs layer only ever needs to *emit* JSON
 * (objects, arrays, strings, integers), never parse
 * or mutate it. Commas and nesting are managed by an explicit stack,
 * so the emitted bytes are a pure function of the call sequence:
 * exactly what the byte-identical-across---jobs determinism gate needs.
 */

#ifndef CANON_OBS_JSON_HH
#define CANON_OBS_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace canon
{
namespace obs
{

class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; must be followed by exactly one value. */
    void key(std::string_view k);

    void value(const std::string &s);
    void value(const char *s);
    void value(std::uint64_t v);
    void value(int v);

    /** key() + value() in one call. */
    template <typename T>
    void
    kv(std::string_view k, const T &v)
    {
        key(k);
        value(v);
    }

  private:
    void separate();
    void escape(std::string_view s);

    std::ostream &os_;
    // One frame per open container: true after the first element, so
    // separate() knows whether to emit a comma.
    std::vector<bool> frames_;
    bool pendingKey_ = false;
};

} // namespace obs
} // namespace canon

#endif // CANON_OBS_JSON_HH
