#include "cache/payload.hh"

#include <sstream>

#include "common/parse.hh"

namespace canon
{
namespace cache
{

namespace
{

/** Forward-only reader over a payload string. */
struct Cursor
{
    const std::string &text;
    std::size_t pos = 0;

    /** Read up to the next '\n' (consumed, not returned). */
    bool line(std::string &out)
    {
        if (pos >= text.size())
            return false;
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return false;
        out = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    }

    /** Read exactly @p n raw bytes followed by a '\n'. */
    bool bytes(std::size_t n, std::string &out)
    {
        // pos <= size always; comparing against the remainder keeps
        // a hostile n from wrapping pos + n around.
        if (n >= text.size() - pos || text[pos + n] != '\n')
            return false;
        out = text.substr(pos, n);
        pos += n + 1;
        return true;
    }

    bool done() const { return pos == text.size(); }
};

/** Parse "<tag> <u64>"; false unless the line matches exactly. */
bool
taggedU64(const std::string &line, const std::string &tag,
          std::uint64_t &out)
{
    return line.rfind(tag + " ", 0) == 0 &&
           parseInt(std::string_view(line).substr(tag.size() + 1), out);
}

/** Split off the rest-of-line value of "<tag> <value>". */
bool
taggedRest(const std::string &line, const std::string &tag,
           std::string &out)
{
    if (line.rfind(tag + " ", 0) != 0)
        return false;
    out = line.substr(tag.size() + 1);
    return true;
}

} // namespace

std::string
encodeCaseResult(const CaseResult &cases)
{
    std::ostringstream oss;
    oss << "caseresult " << cases.size() << "\n";
    for (const auto &[name, p] : cases) {
        oss << "entry " << name << "\n"
            << "arch " << p.arch << "\n"
            << "workload " << p.workload << "\n"
            << "cycles " << p.cycles << "\n"
            << "pes " << p.peCount << "\n"
            << "activity " << p.activity.size() << "\n";
        for (const auto &[key, value] : p.activity)
            oss << key << " " << value << "\n";
    }
    return oss.str();
}

bool
decodeCaseResult(const std::string &payload, CaseResult &out)
{
    out.clear();
    Cursor cur{payload};
    std::string line;
    std::uint64_t entries = 0;
    if (!cur.line(line) || !taggedU64(line, "caseresult", entries))
        return false;

    for (std::uint64_t e = 0; e < entries; ++e) {
        std::string name;
        if (!cur.line(line) || !taggedRest(line, "entry", name) ||
            name.empty() || out.count(name) != 0)
            return false;
        ExecutionProfile p;
        std::uint64_t activity = 0;
        if (!cur.line(line) || !taggedRest(line, "arch", p.arch))
            return false;
        if (!cur.line(line) ||
            !taggedRest(line, "workload", p.workload))
            return false;
        if (!cur.line(line) || !taggedU64(line, "cycles", p.cycles))
            return false;
        if (!cur.line(line) || !taggedU64(line, "pes", p.peCount))
            return false;
        if (!cur.line(line) || !taggedU64(line, "activity", activity))
            return false;
        for (std::uint64_t a = 0; a < activity; ++a) {
            if (!cur.line(line))
                return false;
            const std::size_t space = line.find(' ');
            if (space == 0 || space == std::string::npos)
                return false;
            const std::string key = line.substr(0, space);
            std::uint64_t value = 0;
            if (!taggedU64(line, key, value) ||
                p.activity.count(key) != 0)
                return false;
            p.activity.emplace(key, value);
        }
        out.emplace(std::move(name), std::move(p));
    }
    return cur.done();
}

std::string
encodeRows(const RowTable &rows)
{
    std::ostringstream oss;
    oss << "rows " << rows.size() << "\n";
    for (const auto &row : rows) {
        oss << "row " << row.size() << "\n";
        for (const auto &cell : row)
            oss << "cell " << cell.size() << "\n" << cell << "\n";
    }
    return oss.str();
}

bool
decodeRows(const std::string &payload, RowTable &out)
{
    out.clear();
    Cursor cur{payload};
    std::string line;
    std::uint64_t nrows = 0;
    if (!cur.line(line) || !taggedU64(line, "rows", nrows))
        return false;
    // No reserve() from the untrusted counts: a corrupt entry
    // claiming 2^64 rows must fail at the structural checks below,
    // not throw length_error out of the graceful-miss path.
    for (std::uint64_t r = 0; r < nrows; ++r) {
        std::uint64_t ncells = 0;
        if (!cur.line(line) || !taggedU64(line, "row", ncells))
            return false;
        std::vector<std::string> row;
        for (std::uint64_t c = 0; c < ncells; ++c) {
            std::uint64_t len = 0;
            std::string cell;
            if (!cur.line(line) || !taggedU64(line, "cell", len) ||
                !cur.bytes(len, cell))
                return false;
            row.push_back(std::move(cell));
        }
        out.push_back(std::move(row));
    }
    return cur.done();
}

} // namespace cache
} // namespace canon
