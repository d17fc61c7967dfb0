/**
 * @file
 * leca_perfbench: the LeCA benchmark binary. perfbench/run.py builds
 * and runs it; it can also be run directly:
 *
 *   leca_perfbench --workload serve_int8|serve_tiny|train_analog
 *                  --seed N --seconds S --trace 0|1 [--corrupt-reference]
 *
 * It prints a human-readable report, then `RESULT {...}` as its last
 * line, and exits 1 when any output check failed (2 on bad arguments).
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "tensor/isa.hh"
#include "util/check.hh"
#include "util/parallel.hh"
#include "workloads.hh"

namespace {

int
usage(const char *why)
{
    std::cerr << "leca_perfbench: " << why
              << "\nusage: leca_perfbench --workload "
                 "serve_int8|serve_tiny|train_analog --seed N --seconds S "
                 "--trace 0|1 [--corrupt-reference]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--corrupt-reference") {
            options.corruptReference = true;
        } else if (arg == "--workload" && has_value) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            options.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            options.trace = std::strcmp(argv[++i], "0") != 0;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!(options.seconds > 0.0 && options.seconds <= 600.0))
        return usage("--seconds must be in (0, 600]");

    perfbench::Report report;
    report.info("workload", options.workload);
    report.info("seed", std::to_string(options.seed));
    report.info("seconds", std::to_string(options.seconds));
    report.info("trace", options.trace ? "1" : "0");
    report.info("kernels", leca::activeKernels().name);
    report.info("LECA_THREADS", std::to_string(leca::threadCount()));
#ifdef __VERSION__
    report.info("compiler", __VERSION__);
#endif
    report.info("build_type", PERFBENCH_BUILD_TYPE);

    try {
        if (options.workload == "serve_int8"
            || options.workload == "serve_tiny")
            perfbench::runServeWorkload(options, report);
        else if (options.workload == "train_analog")
            perfbench::runTrainWorkload(options, report);
        else
            return usage(("unknown workload '" + options.workload + "'")
                             .c_str());
    } catch (const std::exception &e) {
        std::cerr << "leca_perfbench: " << e.what() << "\n";
        return 1;
    }
    report.print();
    return report.failedCount() == 0 ? 0 : 1;
}
