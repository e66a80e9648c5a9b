#include "util/stats_io.hh"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace rcnvm::util {

namespace {

/** Emit a double exactly for counters and sanely for ratios
 *  (max_digits10 lets a reader recover the bits). */
void
emitNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null"; // JSON has no inf/nan
        return;
    }
    std::ostringstream oss;
    oss.precision(17);
    oss << v;
    os << oss.str();
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeStatsJson(std::ostream &os, const StatsMap &stats,
               const std::string &label, Tick ticks)
{
    os << "{\"schema\":\"rcnvm-stats-v1\",\"label\":\""
       << jsonEscape(label) << "\",\"ticks\":" << ticks
       << ",\"stats\":{";
    bool first = true;
    for (const auto &[name, e] : stats.entries()) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":";
        emitNumber(os, e.value);
    }
    os << "},\"kinds\":{";
    first = true;
    for (const auto &[name, e] : stats.entries()) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":\""
           << (e.kind == StatKind::Additive ? "additive" : "scalar")
           << "\"";
    }
    os << "}}";
}

void
writeStatsCsv(std::ostream &os, const StatsMap &stats,
              const std::string &label)
{
    for (const auto &[name, e] : stats.entries()) {
        os << "\"" << label << "\"," << name << ",";
        std::ostringstream oss;
        oss.precision(17);
        oss << e.value;
        os << oss.str() << "\n";
    }
}

} // namespace rcnvm::util
