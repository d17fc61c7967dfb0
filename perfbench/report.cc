#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <sstream>

namespace perfbench {

double
millis(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

std::int64_t
nanos(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
        .count();
}

double
Samples::quantile(double q) const
{
    if (_values.empty())
        return 0.0;
    std::vector<double> sorted = _values;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double
Samples::mean() const
{
    return _values.empty() ? 0.0 : sum() / static_cast<double>(count());
}

double
Samples::sum() const
{
    return std::accumulate(_values.begin(), _values.end(), 0.0);
}

double
Samples::max() const
{
    return _values.empty()
               ? 0.0
               : *std::max_element(_values.begin(), _values.end());
}

double
Samples::tailLevel() const
{
    for (double level : {0.99, 0.95, 0.90, 0.75})
        if ((1.0 - level) * static_cast<double>(count()) >= 10.0)
            return level;
    return 0.5;
}

std::string
percentileName(double level)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "p%ld", std::lround(level * 100));
    return buf;
}

void
Report::add(const std::string &name, double value, const std::string &unit,
            const std::string &better, std::size_t samples,
            const std::string &note)
{
    _metrics.push_back({name, value, unit, better, samples, note});
}

void
Report::info(const std::string &key, const std::string &value)
{
    _info.emplace_back(key, value);
}

void
Report::fail(const std::string &what, std::uint64_t count)
{
    _failed += count;
    // Keep the report readable when a broken build fails every frame.
    if (_failures.size() < 20)
        _failures.push_back(what);
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

/** Shortest decimal form that round-trips the double exactly. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Report::print() const
{
    std::ostringstream text;
    for (const auto &[key, value] : _info)
        text << "# " << key << ": " << value << "\n";
    text << "\n";
    char line[256];
    std::snprintf(line, sizeof(line), "%-40s %14s %-6s %-7s %8s  %s\n",
                  "metric", "value", "unit", "better", "samples", "note");
    text << line;
    for (const Metric &m : _metrics) {
        std::snprintf(line, sizeof(line), "%-40s %14.6g %-6s %-7s %8zu  ",
                      m.name.c_str(), m.value, m.unit.c_str(),
                      m.better.c_str(), m.samples);
        text << line << m.note << "\n";
    }
    for (const DetailRow &row : _details) {
        text << "  [" << row.section << "]";
        for (const auto &[key, value] : row.values)
            text << " " << key << "=" << value;
        text << "\n";
    }
    for (const std::string &f : _failures)
        text << "FAILED: " << f << "\n";
    text << "attempted " << _attempted << ", failed " << _failed << "\n";
    std::cout << text.str();

    std::ostringstream json;
    json << "{\"correct\": " << (_failed == 0 ? "true" : "false")
         << ", \"attempted\": " << _attempted << ", \"failed\": " << _failed
         << ", \"info\": {";
    for (std::size_t i = 0; i < _info.size(); ++i)
        json << (i ? ", " : "") << jsonString(_info[i].first) << ": "
             << jsonString(_info[i].second);
    json << "}, \"metrics\": {";
    for (std::size_t i = 0; i < _metrics.size(); ++i) {
        const Metric &m = _metrics[i];
        json << (i ? ", " : "") << jsonString(m.name)
             << ": {\"value\": " << jsonNumber(m.value)
             << ", \"unit\": " << jsonString(m.unit)
             << ", \"better\": " << jsonString(m.better)
             << ", \"samples\": " << m.samples << "}";
    }
    json << "}, \"details\": [";
    for (std::size_t i = 0; i < _details.size(); ++i) {
        json << (i ? ", " : "") << "{\"section\": "
             << jsonString(_details[i].section);
        for (const auto &[key, value] : _details[i].values)
            json << ", " << jsonString(key) << ": " << jsonNumber(value);
        json << "}";
    }
    json << "]}";
    std::cout << "RESULT " << json.str() << std::endl;
}

} // namespace perfbench
