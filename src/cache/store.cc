#include "cache/store.hh"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace canon
{
namespace cache
{

namespace
{

/** Store-format magic; bump on layout changes (not semantics). */
constexpr const char *kMagicLine = "canon-cache 1\n";

/** Unique-enough temp suffix for same-directory atomic publishes. */
std::string
tempSuffix()
{
    static std::atomic<std::uint64_t> seq{0};
    std::random_device rd;
    std::ostringstream oss;
    oss << "." << std::hex << rd() << "-"
        << seq.fetch_add(1, std::memory_order_relaxed) << ".tmp";
    return oss.str();
}

} // namespace

std::string
ResultStore::prepare() const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        return "cannot create cache directory '" + dir_ +
               "': " + ec.message();
    return {};
}

std::string
ResultStore::entryPath(const ScenarioKey &key) const
{
    // path(dir_) / name, spelled without building a path.
    std::string path = dir_;
    if (!path.empty() && path.back() != '/')
        path += '/';
    return path += key.digest + ".entry";
}

std::optional<std::string>
ResultStore::lookup(const ScenarioKey &key) const
{
    if (!readsEnabled())
        return std::nullopt;
    // O_NONBLOCK: a FIFO planted under an entry name must not block
    // the open; fstat then rejects anything but a regular file.
    const int fd = ::open(entryPath(key).c_str(),
                          O_RDONLY | O_CLOEXEC | O_NONBLOCK);
    if (fd < 0)
        return std::nullopt;
    std::string text;
    struct stat st;
    bool whole = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) &&
                 static_cast<std::uint64_t>(st.st_size) <= kMaxEntryBytes;
    if (whole) {
        // Published entries never change (writers rename a complete
        // file into place), so st_size is the entry's size.
        text.resize(static_cast<std::size_t>(st.st_size));
        std::size_t got = 0;
        while (whole && got < text.size()) {
            const ssize_t n = ::read(fd, text.data() + got,
                                     text.size() - got);
            if (n < 0 && errno == EINTR)
                continue;
            whole = n > 0;
            got += whole ? static_cast<std::size_t>(n) : 0;
        }
    }
    ::close(fd);
    if (!whole)
        return std::nullopt;

    // Magic line, then the full canonical key: a digest collision or
    // a stale/torn entry fails verification and reads as a miss.
    const std::string_view magic = kMagicLine;
    const std::size_t key_end = magic.size() + key.canonical.size();
    if (text.size() <= key_end || !text.starts_with(magic) ||
        text.compare(magic.size(), key.canonical.size(),
                     key.canonical) != 0 ||
        text[key_end] != '\n')
        return std::nullopt;

    text.erase(0, key_end + 1);
    return text;
}

bool
ResultStore::store(const ScenarioKey &key, const std::string &payload,
                   bool *wrote, bool replace) const
{
    if (wrote)
        *wrote = false;
    if (!writesEnabled())
        return true;
    const std::string final_path = entryPath(key);
    const std::string tmp_path = final_path + tempSuffix();
    {
        std::ofstream f(tmp_path, std::ios::binary);
        if (!f)
            return false;
        f << kMagicLine << key.canonical << '\n' << payload;
        f.flush();
        if (!f.good()) {
            ::unlink(tmp_path.c_str());
            return false;
        }
    }

    // Refresh and a replace rename over the entry. Otherwise link()
    // never replaces one: EEXIST means another writer of this key
    // published first (the same bytes) and counted the store.
    const bool overwrite = replace || overwrites();
    const bool published =
        (overwrite ? ::rename(tmp_path.c_str(), final_path.c_str())
                   : ::link(tmp_path.c_str(), final_path.c_str())) == 0;
    const int publish_errno = errno;
    if (!published || !overwrite)
        ::unlink(tmp_path.c_str());
    if (!published)
        return !overwrite && publish_errno == EEXIST;
    stores_.fetch_add(1, std::memory_order_relaxed);
    if (wrote)
        *wrote = true;
    return true;
}

std::string
statsLineText(const CacheStats &s)
{
    return "cache: " + std::to_string(s.hits) + " hits, " +
           std::to_string(s.misses) + " misses, " +
           std::to_string(s.stores) +
           " stored; simulation jobs executed: " +
           std::to_string(s.misses);
}

std::string
ResultStore::statsLine() const
{
    return statsLineText(stats());
}

} // namespace cache
} // namespace canon
