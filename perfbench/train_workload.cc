/**
 * @file
 * Closed-loop analog-modality training workload (train_analog).
 *
 * One caller repeats rounds of Adam train steps on the Full 48x48
 * pipeline at batch 8, in the rotation soft -> hard -> noisy. After
 * each hard step it captures one 48x48 frame with an Ideal-mode
 * LecaSensorChip programmed from the current encoder weights. A round
 * (three steps plus the chip encode) is the workload's unit of work.
 *
 * Checks on every step and round: the loss is finite, the frozen
 * backbone's parameters are bit-unchanged, and the chip's Ideal
 * features equal the hard training encoder's within 1e-6.
 *
 * With --trace 1 every other round is traced: each step runs as its
 * public pieces in LecaPipeline's own order (encoder, decoder, every
 * backbone child forward; loss; every child backward in reverse,
 * decoder, encoder; Adam), each timed. The untraced rounds in between
 * give the tracing overhead.
 */

#include <cmath>
#include <cstring>

#include "data/dataset.hh"
#include "hw/sensor_chip.hh"
#include "hw/weights.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "sensor/noise.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace leca;

constexpr int kHw = 48;
constexpr int kBatch = 8;
constexpr int kBatches = 8; //!< distinct training batches per run
constexpr int kSetups = 3;
constexpr EncoderModality kRotation[] = {
    EncoderModality::Soft, EncoderModality::Hard, EncoderModality::Noisy};
const char *const kModalityNames[] = {"soft", "hard", "noisy"};

/** Spans of one traced step, in milliseconds. */
struct StepSpans
{
    double pixelNoise = 0, encoderFwd = 0, decoderFwd = 0, loss = 0;
    double decoderBwd = 0, encoderBwd = 0, adam = 0, zeroGrad = 0;
    std::vector<double> childFwd, childBwd;
    double backboneFwd() const
    {
        double s = 0;
        for (double v : childFwd)
            s += v;
        return s;
    }
    double sum() const
    {
        double s = pixelNoise + encoderFwd + decoderFwd + loss + decoderBwd
                   + encoderBwd + adam + zeroGrad + backboneFwd();
        for (double v : childBwd)
            s += v;
        return s;
    }
};

struct TrainSetup
{
    std::unique_ptr<LecaPipeline> pipeline;
    std::unique_ptr<Adam> adam;
    SoftmaxCrossEntropy loss;
    Dataset data;
    std::vector<Param *> backboneParams;
    std::vector<std::vector<float>> frozenRef; //!< backbone params at set-up
};

class TrainRun
{
  public:
    TrainRun(const RunOptions &options, Report &report)
        : _options(options), _report(report)
    {
    }

    void run();

  private:
    std::unique_ptr<TrainSetup> setUp();
    /** One Adam step; returns its wall time in ms. */
    double step(TrainSetup &s, int batch, EncoderModality modality,
                StepSpans *spans);
    /** Ideal chip capture of one frame; returns encodeFrame time in ms. */
    double chipCheck(TrainSetup &s, int batch, ChipStats &stats);
    void checkFrozen(TrainSetup &s);

    const RunOptions &_options;
    Report &_report;
    SensorConfig _sensor; //!< the pipeline's pixel-noise configuration
};

std::unique_ptr<TrainSetup>
TrainRun::setUp()
{
    auto s = std::make_unique<TrainSetup>();
    LecaConfig cfg;
    cfg.nch = 8;
    cfg.qbits = QBits(3.0);
    cfg.decoderDncnnLayers = 3;
    cfg.decoderFilters = 64;
    s->pipeline = makePipeline(BackboneStyle::Full, cfg);
    s->adam = std::make_unique<Adam>(s->pipeline->allParams(), 1e-3);

    SyntheticVision::Config vc;
    vc.resolution = kHw;
    vc.numClasses = kClasses;
    vc.seed = _options.seed;
    s->data = SyntheticVision(vc).generate(kBatch * kBatches, 2);

    s->backboneParams = s->pipeline->backbone().params();
    for (Param *p : s->backboneParams)
        s->frozenRef.emplace_back(p->value.data(),
                                  p->value.data() + p->value.numel());
    if (_options.corruptReference) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &s->frozenRef[0][0], sizeof(bits));
        bits ^= 1u;
        std::memcpy(&s->frozenRef[0][0], &bits, sizeof(bits));
    }
    return s;
}

double
TrainRun::step(TrainSetup &s, int batch, EncoderModality modality,
               StepSpans *spans)
{
    LecaPipeline &p = *s.pipeline;
    p.setModality(modality);
    const std::size_t elems = 3u * kHw * kHw;
    const Tensor images = Tensor::borrow(
        {kBatch, 3, kHw, kHw}, s.data.images.data() + batch * kBatch * elems);
    const std::vector<int> labels(
        s.data.labels.begin() + batch * kBatch,
        s.data.labels.begin() + (batch + 1) * kBatch);

    double loss = 0.0;
    const auto t0 = Clock::now();
    if (spans == nullptr) {
        // The library's own step, as LecaTrainer runs it.
        s.adam->zeroGrad();
        const Tensor logits = p.forward(images, Mode::Train);
        loss = s.loss.forward(logits, labels);
        p.backward(s.loss.backward());
        s.adam->step();
    } else {
        // The same calls, one public piece at a time.
        Sequential &bb = p.backbone();
        spans->childFwd.assign(bb.size(), 0.0);
        spans->childBwd.assign(bb.size(), 0.0);
        auto t = Clock::now();
        const auto lap = [&t](double &into) {
            const auto now = Clock::now();
            into += millis(t, now);
            t = now;
        };
        s.adam->zeroGrad();
        lap(spans->zeroGrad);
        Tensor x;
        if (modality == EncoderModality::Noisy) {
            // What encodeFeatures does in Noisy modality: pixel-array
            // noise from the pipeline's stream, then the encoder.
            const Tensor noisy =
                PixelNoiseModel(_sensor).apply(images, p.noiseRng());
            lap(spans->pixelNoise);
            x = p.encoder().forward(noisy, Mode::Train);
        } else {
            x = p.encoder().forward(images, Mode::Train);
        }
        lap(spans->encoderFwd);
        x = p.decoder().forward(x, Mode::Train);
        lap(spans->decoderFwd);
        for (std::size_t i = 0; i < bb.size(); ++i) {
            x = bb.at(i).forward(x, Mode::Train);
            lap(spans->childFwd[i]);
        }
        loss = s.loss.forward(x, labels);
        Tensor g = s.loss.backward();
        lap(spans->loss);
        for (std::size_t i = bb.size(); i-- > 0;) {
            g = bb.at(i).backward(g);
            lap(spans->childBwd[i]);
        }
        g = p.decoder().backward(g);
        lap(spans->decoderBwd);
        p.encoder().backward(g);
        lap(spans->encoderBwd);
        s.adam->step();
        lap(spans->adam);
    }
    const double ms = millis(t0, Clock::now());
    _report.attempted(1);
    if (!std::isfinite(loss))
        _report.fail(std::string(kModalityNames[static_cast<int>(modality)])
                     + " step loss is not finite");
    return ms;
}

double
TrainRun::chipCheck(TrainSetup &s, int batch, ChipStats &stats)
{
    LecaEncoder &enc = s.pipeline->encoder();
    ChipConfig cc;
    cc.rgbHeight = kHw;
    cc.rgbWidth = kHw;
    cc.qbits = enc.qbits();
    cc.adcFullScale = std::max(enc.outScale().value[0], 0.02f);
    cc.monteCarlo = false;
    LecaSensorChip chip(cc);
    chip.loadKernels(flattenKernels(enc.weight().value, enc.weightScale()));

    const std::size_t elems = 3u * kHw * kHw;
    const float *frame = s.data.images.data() + batch * kBatch * elems;
    const Tensor scene = Tensor::borrow({3, kHw, kHw}, frame);
    Rng rng(1);
    chip.resetStats();
    const auto t0 = Clock::now();
    const Tensor codes = chip.encodeFrame(scene, PeMode::Ideal, rng, false);
    const double ms = millis(t0, Clock::now());
    stats = chip.stats();
    _report.attempted(1);

    const Tensor chip_features = chip.codesToFeatures(codes);
    const Tensor train_features =
        enc.forward(Tensor::borrow({1, 3, kHw, kHw}, frame), Mode::Eval);
    std::uint64_t mismatches = 0;
    if (chip_features.numel() != train_features.numel())
        mismatches = 1;
    else
        for (std::size_t i = 0; i < chip_features.numel(); ++i)
            if (!(std::abs(chip_features[i] - train_features[i]) <= 1e-6f))
                ++mismatches;
    if (mismatches != 0)
        _report.fail("chip Ideal features differ from the hard encoder in "
                     + std::to_string(mismatches) + " elements");
    return ms;
}

void
TrainRun::checkFrozen(TrainSetup &s)
{
    for (std::size_t i = 0; i < s.backboneParams.size(); ++i) {
        const Tensor &v = s.backboneParams[i]->value;
        if (v.numel() != s.frozenRef[i].size()
            || std::memcmp(v.data(), s.frozenRef[i].data(),
                           v.numel() * sizeof(float))
                   != 0) {
            _report.fail("frozen backbone parameter " + std::to_string(i)
                         + " changed");
            return;
        }
    }
}

void
TrainRun::run()
{
    // Set-up: model, optimizer, data and references, plus one untimed
    // warm round; repeated, median reported.
    Samples setup_s;
    double setup_rss = 0;
    std::unique_ptr<TrainSetup> s;
    for (int k = 0; k < kSetups; ++k) {
        const auto t0 = Clock::now();
        s.reset();
        s = setUp();
        if (k == 0)
            setup_rss = peakRssMb();
        ChipStats unused;
        for (EncoderModality m : kRotation) {
            step(*s, 0, m, nullptr);
            // The chip is compared against the encoder's Hard modality.
            if (m == EncoderModality::Hard)
                chipCheck(*s, 0, unused);
        }
        checkFrozen(*s);
        setup_s.add(millis(t0, Clock::now()) / 1e3);
    }

    Samples round_ms, untraced_round_ms, traced_round_ms, chip_ms;
    Samples step_ms[3];
    double enc_fwd_total = 0, dec_fwd_total = 0, bb_fwd_total = 0;
    Samples enc_fwd[3], enc_bwd[3], noise_ms, dec_fwd, dec_bwd, loss_ms,
        adam_ms, step_sum_ratio;
    std::vector<Samples> child_fwd, child_bwd;
    ChipStats chip_stats;
    double frames = 0, traced_frames = 0, encoder_frames = 0;
    int round = 0;
    const auto stop = Clock::now() + std::chrono::duration<double>(
                                         _options.seconds);
    while (Clock::now() < stop || round < 2) {
        const bool traced = _options.trace && round % 2 == 0;
        double this_round = 0.0;
        for (int m = 0; m < 3; ++m) {
            const int batch = (round * 3 + m) % kBatches;
            StepSpans spans;
            const double ms =
                step(*s, batch, kRotation[m], traced ? &spans : nullptr);
            this_round += ms;
            frames += kBatch;
            encoder_frames += kBatch;
            step_ms[m].add(ms);
            if (traced) {
                traced_frames += kBatch;
                enc_fwd[m].add(spans.encoderFwd);
                enc_bwd[m].add(spans.encoderBwd);
                if (kRotation[m] == EncoderModality::Noisy)
                    noise_ms.add(spans.pixelNoise);
                dec_fwd.add(spans.decoderFwd);
                dec_bwd.add(spans.decoderBwd);
                loss_ms.add(spans.loss);
                adam_ms.add(spans.adam);
                child_fwd.resize(spans.childFwd.size());
                child_bwd.resize(spans.childBwd.size());
                for (std::size_t i = 0; i < spans.childFwd.size(); ++i) {
                    child_fwd[i].add(spans.childFwd[i]);
                    child_bwd[i].add(spans.childBwd[i]);
                }
                step_sum_ratio.add(spans.sum() / ms);
                enc_fwd_total += spans.encoderFwd;
                dec_fwd_total += spans.decoderFwd;
                bb_fwd_total += spans.backboneFwd();
            }
            if (kRotation[m] == EncoderModality::Hard) {
                const double chip = chipCheck(*s, batch, chip_stats);
                chip_ms.add(chip);
                this_round += chip;
                encoder_frames += 1; // the Ideal-vs-hard check's forward
            }
        }
        checkFrozen(*s);
        round_ms.add(this_round);
        (traced ? traced_round_ms : untraced_round_ms).add(this_round);
        ++round;
    }

    Report &r = _report;
    r.info("loop", "closed; one caller; a round is a soft, a hard and a "
                   "noisy Adam step at batch 8 plus one Ideal chip encode");
    r.info("model", "Full backbone (frozen), 48x48 frames, nch 8, decoder "
                    "3x64, Adam lr 1e-3, fp32 forward + backward");
    const std::size_t nr = round_ms.count();
    if (!_options.trace) {
        const double tail = round_ms.tailLevel();
        r.add("setup_s", setup_s.median(), "s", "lower", setup_s.count(),
              "model build + optimizer + data + references + warm round");
        r.add("setup_rss_mb", setup_rss, "MB", "lower", 1,
              "peak RSS once the first set-up built its model and data");
        r.add("peak_rss_mb", peakRssMb(), "MB", "lower", 1, "whole run");
        r.add("latency_p50_ms", round_ms.median(), "ms", "lower", nr,
              "one round: three train steps + chip encode");
        r.add("latency_tail_ms", round_ms.quantile(tail), "ms", "lower", nr,
              percentileName(tail) + " of the round time");
        r.add("latency_p90_ms", round_ms.quantile(0.9), "ms", "lower", nr,
              "of the round time");
        r.add("service_rate_fps", 1e3 * frames / round_ms.sum(), "fps",
              "higher", nr,
              "frames trained per second by the one closed-loop caller");
        for (int m = 0; m < 3; ++m) {
            r.add(std::string("train_step_ms.") + kModalityNames[m],
                  step_ms[m].median(), "ms", "lower", step_ms[m].count(),
                  "median");
            r.add(std::string("train_step_p90_ms.") + kModalityNames[m],
                  step_ms[m].quantile(0.9), "ms", "lower",
                  step_ms[m].count());
        }
        r.add("chip_encode_ms", chip_ms.median(), "ms", "lower",
              chip_ms.count(), "Ideal-mode 48x48 encodeFrame, median");
    } else {
        const double tf = traced_frames;
        Sequential &bb = s->pipeline->backbone();
        const double flops = forwardFlopsPerImage(bb, kHw, kHw);
        r.add("core.encoder_us_per_frame", 1e3 * enc_fwd_total / tf, "us",
              "lower", traced_round_ms.count(),
              "encoder forward busy time per trained frame, all modalities");
        r.add("core.decoder_us_per_frame", 1e3 * dec_fwd_total / tf, "us",
              "lower", traced_round_ms.count(),
              "decoder forward busy time per trained frame");
        r.add("nn.backbone_us_per_frame", 1e3 * bb_fwd_total / tf, "us",
              "lower", traced_round_ms.count(),
              "backbone forward busy time per trained frame");
        r.add("core.encoder_calls_per_frame", encoder_frames / frames,
              "count", "lower", nr,
              "train forwards + the chip check's hard forward");
        r.add("nn.backbone.gflops", flops * tf / (bb_fwd_total * 1e6),
              "GFLOP/s", "higher", traced_round_ms.count(),
              "forward only; computed: 2 x conv/linear MACs from layer "
              "shapes = "
                  + std::to_string(flops / 1e9) + " GFLOP per frame");
        for (int m = 0; m < 3; ++m) {
            const std::string mn = kModalityNames[m];
            r.add("core.encoder_fwd_ms." + mn, enc_fwd[m].median(), "ms",
                  "lower", enc_fwd[m].count());
            r.add("core.encoder_bwd_ms." + mn, enc_bwd[m].median(), "ms",
                  "lower", enc_bwd[m].count());
        }
        r.add("sensor.pixel_noise_ms", noise_ms.median(), "ms", "lower",
              noise_ms.count(), "PixelNoiseModel::apply on the noisy batch");
        r.add("core.decoder_fwd_ms", dec_fwd.median(), "ms", "lower",
              dec_fwd.count());
        r.add("core.decoder_bwd_ms", dec_bwd.median(), "ms", "lower",
              dec_bwd.count());
        const std::vector<std::string> names = childNames(bb);
        for (std::size_t i = 0; i < child_fwd.size(); ++i) {
            r.add("nn.backbone." + names[i] + ".fwd_ms", child_fwd[i].median(),
                  "ms", "lower", child_fwd[i].count());
            r.add("nn.backbone." + names[i] + ".bwd_ms", child_bwd[i].median(),
                  "ms", "lower", child_bwd[i].count());
        }
        r.add("nn.loss_ms", loss_ms.median(), "ms", "lower", loss_ms.count(),
              "forward + backward");
        r.add("nn.adam_step_ms", adam_ms.median(), "ms", "lower",
              adam_ms.count());
        r.add("hw.mac_ops_per_frame", static_cast<double>(chip_stats.macOps),
              "count", "lower", 1, "exact ChipStats count");
        r.add("hw.adc_conversions_per_frame",
              static_cast<double>(chip_stats.totalAdcConversions()), "count",
              "lower", 1, "exact ChipStats count");
        r.add("hw.output_link_bits_per_frame",
              static_cast<double>(chip_stats.outputLinkBits), "count",
              "lower", 1, "exact ChipStats count");
        r.add("trace.overhead_pct",
              100.0 * (traced_round_ms.median() / untraced_round_ms.median()
                       - 1.0),
              "%", "lower", nr, "traced vs untraced rounds, medians");
        r.detail({"parts",
                  {{"train_step_parts_ratio_min", step_sum_ratio.quantile(0)},
                   {"train_step_parts_ratio_max",
                    step_sum_ratio.quantile(1)}}});
    }
    r.add("failed_share",
          static_cast<double>(r.failedCount())
              / static_cast<double>(
                  std::max<std::uint64_t>(r.attemptedCount(), 1)),
          "ratio", "lower", r.attemptedCount());
}

} // namespace

void
runTrainWorkload(const RunOptions &options, Report &report)
{
    TrainRun(options, report).run();
}

} // namespace perfbench
