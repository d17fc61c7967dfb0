#include "json_report.hh"

#include <chrono>
#include <cstring>
#include <fstream>

#include "util/logging.hh"
#include "util/parallel.hh"

namespace leca::bench {

namespace {

/** Minimal JSON string escape (quotes, backslashes, control chars). */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out.push_back(' ');
        } else {
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

JsonReport::JsonReport(int &argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            _path = argv[i + 1];
            // Remove the two consumed arguments from argv.
            for (int j = i; j + 2 <= argc; ++j)
                argv[j] = argv[j + 2];
            argc -= 2;
            break;
        }
    }
}

JsonReport::~JsonReport()
{
    write();
}

void
JsonReport::add(const std::string &name, double value,
                const std::string &unit, Better better)
{
    if (_path.empty())
        return;
    _entries.push_back(Entry{name, value, unit, better});
}

void
JsonReport::write()
{
    if (_path.empty() || _written)
        return;
    std::ofstream out(_path);
    if (!out) {
        warn("cannot write bench JSON to ", _path);
        return;
    }
    out << "{\n"
        << "  \"schema\": \"leca-bench-v2\",\n"
        << "  \"threads\": " << threadCount() << ",\n"
        << "  \"entries\": [\n";
    for (std::size_t i = 0; i < _entries.size(); ++i) {
        const Entry &e = _entries[i];
        out << "    {\"name\": \"" << escape(e.name) << "\", \"value\": "
            << e.value << ", \"unit\": \"" << escape(e.unit)
            << "\", \"better\": \""
            << (e.better == Better::Lower ? "lower" : "higher") << "\"}"
            << (i + 1 < _entries.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    _written = true;
    inform("bench JSON written to ", _path);
}

double
timeWallMs(const std::function<void()> &fn, int iters)
{
    using clock = std::chrono::steady_clock;
    fn(); // warm-up (thread-pool spin-up, caches)
    const auto start = clock::now();
    for (int i = 0; i < iters; ++i)
        fn();
    const auto stop = clock::now();
    const double total_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    return total_ms / iters;
}

} // namespace leca::bench
