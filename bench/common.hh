/**
 * @file
 * Shared infrastructure of the benchmark harnesses: the standard proxy
 * pipeline (SyntheticVision-24 + proxy backbone, standing in for
 * TinyImageNet + ResNet-18) and full pipeline (SyntheticVision-48 +
 * full backbone, standing in for ImageNet + ResNet-50), with on-disk
 * caching of the pre-trained frozen backbones so repeated bench runs
 * are fast.
 *
 * Set LECA_BENCH_FAST=1 to shrink datasets/epochs for smoke runs.
 */

#ifndef LECA_BENCH_COMMON_HH
#define LECA_BENCH_COMMON_HH

#include <memory>
#include <string>

#include "compression/method.hh"
#include "core/pipeline.hh"
#include "core/trainer.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "data/trainloop.hh"

namespace leca::bench {

/** Scale of an evaluation pipeline. */
enum class Scale
{
    Proxy, //!< TinyImageNet/ResNet-18 stand-in (24x24)
    Full   //!< ImageNet/ResNet-50 stand-in (48x48)
};

/** A ready-to-use evaluation context. */
struct Harness
{
    SyntheticVision::Config dataConfig;
    Dataset train;
    Dataset val;
    std::unique_ptr<Sequential> backbone;
    double backboneAccuracy = 0.0; //!< frozen-baseline accuracy
    Scale scale = Scale::Proxy;
};

/** True when LECA_BENCH_FAST is set (smaller datasets and epochs). */
bool fastMode();

/**
 * Directory holding on-disk bench caches: $LECA_CACHE_DIR when set,
 * data/cache/ otherwise (created on demand, gitignored).
 */
std::string cacheDir();

/**
 * Build (or load from cache) the harness for a scale. The backbone is
 * pre-trained on the train split and frozen; its weights are cached in
 * cacheDir()/leca_cache_<scale>_backbone.bin, or in
 * leca_cache_<scale>_backbone_fast.bin under LECA_BENCH_FAST, whose
 * smaller training run gives a different backbone.
 */
Harness makeHarness(Scale scale);

/** Fresh LeCA pipeline over a clone of the harness backbone. */
std::unique_ptr<LecaPipeline> makePipeline(const Harness &harness,
                                           const LecaConfig &config,
                                           std::uint64_t seed = 21);

/** Standard LeCA training recipe used across benches. */
LecaTrainOptions standardTrainOptions(Scale scale);

/** Cheaper recipe for wide design-space sweeps (Fig. 4). */
LecaTrainOptions sweepTrainOptions(Scale scale);

/** Train in the given modality and return validation accuracy. */
double trainLeca(LecaPipeline &pipeline, const Harness &harness,
                 EncoderModality modality,
                 const LecaTrainOptions &options);

/** Accuracy of the frozen backbone on baseline-processed images. */
double baselineAccuracy(const Harness &harness, CompressionMethod &method);

/** Reduced decoder hyper-parameters for bench-scale configs. */
LecaConfig benchConfig(int nch, double qbits, int kernel = 2);

} // namespace leca::bench

#endif // LECA_BENCH_COMMON_HH
