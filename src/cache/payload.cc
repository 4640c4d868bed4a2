#include "cache/payload.hh"

#include <charconv>
#include <sstream>

#include "common/parse.hh"

namespace canon
{
namespace cache
{

namespace
{

/** Forward-only reader over a payload. */
struct Cursor
{
    std::string_view text;
    std::size_t pos = 0;

    /** Read up to the next '\n' (consumed, not returned). */
    bool line(std::string_view &out)
    {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos)
            return false;
        out = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    }

    /** Read exactly @p n raw bytes followed by a '\n'. */
    bool bytes(std::size_t n, std::string_view &out)
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

/** Split off the rest-of-line value of "<tag> <value>". */
bool
taggedRest(std::string_view line, std::string_view tag,
           std::string_view &out)
{
    if (line.size() <= tag.size() || !line.starts_with(tag) ||
        line[tag.size()] != ' ')
        return false;
    out = line.substr(tag.size() + 1);
    return true;
}

/** Parse "<tag> <u64>"; false unless the line matches exactly. */
bool
taggedU64(std::string_view line, std::string_view tag,
          std::uint64_t &out)
{
    std::string_view rest;
    return taggedRest(line, tag, rest) && parseInt(rest, out);
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/** Decode the fields of entry @p name; its "arch" line repeats it. */
bool
decodeProfile(Cursor &cur, std::string_view name, ExecutionProfile &p)
{
    std::string_view line, text;
    std::uint64_t activity = 0;
    if (!cur.line(line) || !taggedRest(line, "arch", text) ||
        text != name)
        return false;
    if (!cur.line(line) || !taggedRest(line, "workload", text))
        return false;
    p.workload = text;
    if (!cur.line(line) || !taggedU64(line, "cycles", p.cycles) ||
        !cur.line(line) || !taggedU64(line, "pes", p.peCount) ||
        !cur.line(line) || !taggedU64(line, "activity", activity))
        return false;
    for (std::uint64_t i = 0; i < activity; ++i) {
        if (!cur.line(line))
            return false;
        // "<name> <u64>": an unknown or repeated name is corruption.
        const std::size_t space = line.find(' ');
        if (space == std::string_view::npos)
            return false;
        const auto a = activityByName(line.substr(0, space));
        std::uint64_t value = 0;
        if (!a || p.has(*a) || !parseInt(line.substr(space + 1), value))
            return false;
        p.add(*a, value);
    }
    return true;
}

} // namespace

std::string
encodeCaseResult(const CaseResult &cases)
{
    std::string out = "caseresult ";
    appendU64(out, cases.size());
    out += '\n';
    // Entries in name order; the "arch" line repeats the name.
    for (const Arch a : kArchesByName) {
        const auto it = cases.find(a);
        if (it == cases.end())
            continue;
        const ExecutionProfile &p = it->second;
        out.append("entry ").append(archName(a));
        out.append("\narch ").append(archName(a));
        out.append("\nworkload ").append(p.workload);
        out.append("\ncycles ");
        appendU64(out, p.cycles);
        out.append("\npes ");
        appendU64(out, p.peCount);
        out.append("\nactivity ");
        appendU64(out, p.activityCount());
        out += '\n';
        p.forEachActivity([&out](Activity a, std::uint64_t v) {
            out.append(activityName(a)) += ' ';
            appendU64(out, v);
            out += '\n';
        });
    }
    return out;
}

bool
decodeCaseResult(std::string_view payload, CaseResult &out)
{
    out.clear();
    Cursor cur{payload};
    std::string_view line, name;
    std::uint64_t entries = 0;
    if (!cur.line(line) || !taggedU64(line, "caseresult", entries))
        return false;

    for (std::uint64_t e = 0; e < entries; ++e) {
        if (!cur.line(line) || !taggedRest(line, "entry", name))
            return false;
        const auto arch = archByName(name);
        if (!arch)
            return false;
        const auto [it, fresh] = out.try_emplace(*arch);
        if (!fresh || !decodeProfile(cur, name, it->second))
            return false;
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
decodeRows(std::string_view payload, RowTable &out)
{
    out.clear();
    Cursor cur{payload};
    std::string_view line;
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
            std::string_view cell;
            if (!cur.line(line) || !taggedU64(line, "cell", len) ||
                !cur.bytes(len, cell))
                return false;
            row.emplace_back(cell);
        }
        out.push_back(std::move(row));
    }
    return cur.done();
}

} // namespace cache
} // namespace canon
