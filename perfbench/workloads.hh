/**
 * @file
 * The LeCA benchmark's workloads and the model helpers they share.
 *
 * Every workload drives the library only through its public entry
 * points (serve::Server, LecaPipeline, LecaEncoder / LecaDecoder /
 * Sequential, bitstream, LecaSensorChip, Adam). Models are built from
 * fixed seeds with no training and no cached files; frames come from
 * SyntheticVision drawn with the workload seed.
 */

#ifndef LECA_PERFBENCH_WORKLOADS_HH
#define LECA_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "data/backbone.hh"
#include "report.hh"

namespace perfbench {

/** Command-line settings of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Flip one bit of a set-up-time reference, so the output checks
     *  must report mismatches (the benchmark's own self-test). */
    bool corruptReference = false;
};

/** serve_int8 and serve_tiny: open-loop serving through serve::Server. */
void runServeWorkload(const RunOptions &options, Report &report);

/** train_analog: closed-loop Adam steps soft -> hard -> noisy. */
void runTrainWorkload(const RunOptions &options, Report &report);

/** Classes of every benchmark model and SyntheticVision stream. */
inline constexpr int kClasses = 8;

/**
 * A pipeline from fixed seeds (encoder/decoder seed 21, backbone
 * stream 3): untrained weights exercise exactly the same kernels as
 * trained ones, and no set-up time goes to training.
 */
std::unique_ptr<leca::LecaPipeline>
makePipeline(leca::BackboneStyle style, const leca::LecaConfig &config);

/**
 * Forward FLOPs of one h x w image through @p net, computed from the
 * layer shapes: 2 x MACs of every convolution and linear layer
 * (batch-norm, activation and pooling work is not counted).
 */
double forwardFlopsPerImage(leca::Sequential &net, int h, int w);

/** Short per-child names of a backbone: stem, bn, relu, res1.., gap, fc. */
std::vector<std::string> childNames(leca::Sequential &net);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // LECA_PERFBENCH_WORKLOADS_HH
