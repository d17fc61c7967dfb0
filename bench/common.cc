#include "common.hh"

#include <cstdlib>
#include <filesystem>

#include "compression/method.hh"
#include "data/serialize.hh"
#include "util/check.hh"
#include "util/logging.hh"

namespace leca::bench {

bool
fastMode()
{
    const char *env = std::getenv("LECA_BENCH_FAST");
    return env && env[0] == '1';
}

std::string
cacheDir()
{
    const char *env = std::getenv("LECA_CACHE_DIR");
    const std::string dir = env && env[0] ? env : "data/cache";
    // Best-effort: a failed mkdir just means the cache load/save below
    // misses and the backbone is re-trained.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
}

Harness
makeHarness(Scale scale)
{
    Harness h;
    h.scale = scale;
    const bool fast = fastMode();

    h.dataConfig.numClasses = 8;
    h.dataConfig.seed = scale == Scale::Proxy ? 101 : 202;
    h.dataConfig.resolution = scale == Scale::Proxy ? 24 : 48;

    const int train_n = scale == Scale::Proxy ? (fast ? 128 : 256)
                                              : (fast ? 96 : 192);
    const int val_n = scale == Scale::Proxy ? (fast ? 64 : 128)
                                            : (fast ? 48 : 96);

    SyntheticVision gen(h.dataConfig);
    h.train = gen.generate(train_n, 1);
    h.val = gen.generate(val_n, 2);

    Rng rng(scale == Scale::Proxy ? 7 : 8);
    h.backbone = makeBackbone(
        scale == Scale::Proxy ? BackboneStyle::Proxy : BackboneStyle::Full,
        3, h.dataConfig.numClasses, rng);

    // FAST and full runs train different backbones, so each mode keeps
    // its own cache file.
    const std::string cache =
        cacheDir()
        + (scale == Scale::Proxy ? "/leca_cache_proxy_backbone"
                                 : "/leca_cache_full_backbone")
        + (fast ? "_fast.bin" : ".bin");
    if (!loadLayerState(*h.backbone, cache)) {
        inform("pre-training ", scale == Scale::Proxy ? "proxy" : "full",
               " backbone (cached afterwards)...");
        TrainOptions options;
        options.epochs = scale == Scale::Proxy ? (fast ? 5 : 12)
                                               : (fast ? 3 : 8);
        options.batchSize = 32;
        options.learningRate = 3e-3;
        options.lrDecayEveryEpochs = 6;
        options.augment = false;
        options.seed = 33;
        trainClassifier(*h.backbone, h.train, h.val, options);
        saveLayerState(*h.backbone, cache);
    }
    h.backboneAccuracy = evalAccuracy(*h.backbone, h.val);
    return h;
}

std::unique_ptr<LecaPipeline>
makePipeline(const Harness &harness, const LecaConfig &config,
             std::uint64_t seed)
{
    // Clone the frozen backbone so each pipeline owns its own copy.
    Rng rng(harness.scale == Scale::Proxy ? 7 : 8);
    auto backbone = makeBackbone(harness.scale == Scale::Proxy
                                     ? BackboneStyle::Proxy
                                     : BackboneStyle::Full,
                                 3, harness.dataConfig.numClasses, rng);
    auto &src_layer = const_cast<Sequential &>(*harness.backbone);
    auto src = src_layer.params();
    auto dst = backbone->params();
    LECA_CHECK(src.size() == dst.size(), "backbone clone mismatch");
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i]->value = src[i]->value;
    // Running statistics must be cloned too, or evaluation-mode
    // batch-norm runs on fresh (wrong) statistics.
    auto src_state = src_layer.state();
    auto dst_state = backbone->state();
    LECA_CHECK(src_state.size() == dst_state.size(),
               "backbone state clone mismatch");
    for (std::size_t i = 0; i < src_state.size(); ++i)
        *dst_state[i] = *src_state[i];

    LecaPipeline::Options options;
    options.leca = config;
    options.seed = seed;
    return std::make_unique<LecaPipeline>(options, std::move(backbone));
}

LecaTrainOptions
standardTrainOptions(Scale scale)
{
    const bool fast = fastMode();
    LecaTrainOptions options;
    if (scale == Scale::Proxy) {
        options.epochs = fast ? 3 : 4;
        options.incrementalEpochs = 1;
        options.batchSize = 32;
    } else {
        options.epochs = fast ? 2 : 3;
        options.incrementalEpochs = fast ? 0 : 1;
        options.batchSize = 16;
    }
    options.learningRate = 3e-3;
    options.seed = 97;
    return options;
}

LecaTrainOptions
sweepTrainOptions(Scale scale)
{
    // A cheaper recipe for wide design-space sweeps (Fig. 4): relative
    // ordering between configurations is what matters there.
    LecaTrainOptions options = standardTrainOptions(scale);
    options.epochs = 2;
    options.incrementalEpochs = 1;
    return options;
}

double
trainLeca(LecaPipeline &pipeline, const Harness &harness,
          EncoderModality modality, const LecaTrainOptions &options)
{
    pipeline.setModality(modality);
    LecaTrainer trainer(pipeline);
    return trainer.train(harness.train, harness.val, options);
}

double
baselineAccuracy(const Harness &harness, CompressionMethod &method)
{
    const Tensor processed = method.process(harness.val.images);
    Dataset ds;
    ds.images = processed;
    ds.labels = harness.val.labels;
    return evalAccuracy(const_cast<Sequential &>(*harness.backbone), ds);
}

LecaConfig
benchConfig(int nch, double qbits, int kernel)
{
    LecaConfig cfg;
    cfg.kernel = kernel;
    cfg.nch = nch;
    cfg.qbits = QBits(qbits);
    cfg.decoderDncnnLayers = 2;
    cfg.decoderFilters = 12;
    return cfg;
}

} // namespace leca::bench
