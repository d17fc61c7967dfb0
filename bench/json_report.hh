/**
 * @file
 * Machine-readable benchmark output: the one report every bench
 * harness writes, schema "leca-bench-v2". Each entry is
 * {name, value, unit, better}: the value is what the name says, in
 * `unit`, and `better` says which way it improves. That is all
 * tools/bench_compare.py needs to judge a number against a baseline.
 *
 * The output path comes from `--json <path>` on the command line
 * (consumed from argv). Without it the report is disabled and add()
 * calls are no-ops.
 */

#ifndef LECA_BENCH_JSON_REPORT_HH
#define LECA_BENCH_JSON_REPORT_HH

#include <functional>
#include <string>
#include <vector>

namespace leca::bench {

/** Which direction of an entry's value is an improvement. */
enum class Better
{
    Lower, //!< times, bits per pixel, errors
    Higher //!< rates, speedups, accuracies, ratios
};

/** Collects named entries and writes them as one JSON file. */
class JsonReport
{
  public:
    /**
     * Parse `--json <path>` out of argv, removing it so downstream flag
     * parsers never see it.
     */
    JsonReport(int &argc, char **argv);

    /** Writes the report if a path was configured. */
    ~JsonReport();

    /** Record one entry: @p value in @p unit (e.g. "ms", "bpp", "x"). */
    void add(const std::string &name, double value, const std::string &unit,
             Better better);

    /** Force the write now (also happens in the destructor). */
    void write();

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        Better better;
    };

    std::string _path;
    std::vector<Entry> _entries;
    bool _written = false;
};

/**
 * Average wall-clock milliseconds of @p fn over @p iters runs (one
 * warm-up run excluded).
 */
double timeWallMs(const std::function<void()> &fn, int iters);

/**
 * Make @p value, and any memory it points to, look used, so the
 * optimizer keeps the work that produced it.
 */
template <typename T>
inline void
sink(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

} // namespace leca::bench

#endif // LECA_BENCH_JSON_REPORT_HH
