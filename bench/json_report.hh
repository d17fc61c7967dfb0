/**
 * @file
 * Machine-readable benchmark output. Every bench harness can emit a
 * JSON report of wall-time and throughput so the perf trajectory is
 * tracked across PRs.
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

/** Collects named timing entries and writes them as one JSON file. */
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

    bool enabled() const { return !_path.empty(); }
    const std::string &path() const { return _path; }

    /**
     * Record one benchmark: wall time per iteration in milliseconds
     * and throughput in images (or frames / items) per second. A rate
     * of 0 means "not meaningful for this entry" and omits the key
     * from the JSON — entries never report a bogus zero rate. Entries
     * with a known FLOP count can additionally report arithmetic
     * throughput in GFLOP/s (emitted as an extra "gflops" key; 0
     * omits it, keeping the schema backward compatible).
     */
    void add(const std::string &name, double wall_ms,
             double images_per_sec, double gflops = 0.0);

    /**
     * Record one value metric — a quantity that is not a timing
     * (accuracy delta in points, max-abs quantization error, a
     * compression ratio). Emitted as {"name": ..., "value": ...} with
     * no wall_ms key, so tools/bench_compare.py compares it with an
     * absolute bound (tolerances.json "max") instead of a relative
     * timing threshold.
     */
    void addValue(const std::string &name, double value);

    /** Force the write now (also happens in the destructor). */
    void write();

  private:
    struct Entry
    {
        std::string name;
        double wallMs;
        double imagesPerSec;
        double gflops;
        double value = 0.0;
        bool isValue = false;
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

} // namespace leca::bench

#endif // LECA_BENCH_JSON_REPORT_HH
