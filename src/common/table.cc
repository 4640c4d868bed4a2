#include "common/table.hh"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/logging.hh"

namespace canon
{

Table::Table(std::string title) : title_(std::move(title)) {}

void
Table::header(std::vector<std::string> cols)
{
    header_ = std::move(cols);
}

void
Table::addRow(std::vector<std::string> cells)
{
    panicIf(cells.size() != header_.size(),
            "Table '", title_, "': row width ", cells.size(),
            " != header width ", header_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::fmt(double v, int prec)
{
    // Room for any double at %.*f with prec up to about 150 digits
    // (DBL_MAX has 309 integer digits); wider requests fall back to
    // snprintf, which to_chars matches byte for byte.
    char buf[480];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                         std::chars_format::fixed, prec);
    if (ec == std::errc())
        return {buf, end};
    std::string out(
        static_cast<std::size_t>(std::snprintf(nullptr, 0, "%.*f", prec, v)),
        '\0');
    std::snprintf(out.data(), out.size() + 1, "%.*f", prec, v);
    return out;
}

std::string
Table::fmtInt(std::uint64_t v)
{
    char raw[20];
    const std::size_t digits =
        static_cast<std::size_t>(std::to_chars(raw, raw + 20, v).ptr - raw);
    std::string out;
    out.reserve(digits + (digits - 1) / 3);
    for (std::size_t i = 0; i < digits; ++i) {
        if (i != 0 && (digits - i) % 3 == 0)
            out.push_back(',');
        out.push_back(raw[i]);
    }
    return out;
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;

    // Rendered into one buffer and written once: a stream insert per
    // cell and per padding string cost more than the cells themselves.
    std::string out = "\n=== " + title_ + " ===\n";
    out.reserve(out.size() + (rows_.size() + 2) * (total + 1));
    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            out.append(row[c]).append(widths[c] - row[c].size() + 2, ' ');
        out += '\n';
    };
    print_row(header_);
    out.append(total, '-') += '\n';
    for (const auto &row : rows_)
        print_row(row);
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
    os << std::flush;
}

void
Table::print() const
{
    print(std::cout);
}

void
Table::writeCsv(std::ostream &os, bool with_header) const
{
    // RFC-4180 quoting: thousands-separated integers (fmtInt) would
    // otherwise split into multiple CSV fields.
    auto escape = [](const std::string &cell) {
        if (cell.find_first_of(",\"\n") == std::string::npos)
            return cell;
        std::string out = "\"";
        for (char ch : cell) {
            if (ch == '"')
                out += '"';
            out += ch;
        }
        out += '"';
        return out;
    };
    auto write_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            os << (c ? "," : "") << escape(row[c]);
        os << "\n";
    };
    if (with_header)
        write_row(header_);
    for (const auto &row : rows_)
        write_row(row);
    os.flush();
}

bool
Table::writeCsv(const std::string &path, bool with_header) const
{
    // No warn() here: every caller checks the return value and
    // reports through its own injected error stream, so logging to
    // the global stream as well would double-report (and bypass the
    // stream injection embedders rely on).
    std::ofstream f(path);
    if (!f)
        return false;
    writeCsv(f, with_header);
    return f.good();
}

} // namespace canon
