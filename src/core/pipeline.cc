#include "pipeline.hh"

#include "analog/mismatch.hh"
#include "data/serialize.hh"
#include "data/trainloop.hh"
#include "nn/loss.hh"
#include "util/check.hh"
#include "util/numeric.hh"

namespace leca {

LecaPipeline::LecaPipeline(const Options &options,
                           std::unique_ptr<Sequential> backbone)
    : _backbone(std::move(backbone)),
      _pixelNoise(options.sensor),
      _noiseRng(options.seed * 0x2545F4914F6CDD1DULL + 99)
{
    options.leca.validate();
    options.circuit.validate();
    Rng init(options.seed);
    _encoder = std::make_unique<LecaEncoder>(options.leca, options.circuit,
                                             options.sensor, init);
    _decoder = std::make_unique<LecaDecoder>(options.leca, init);
    LECA_CHECK(_backbone != nullptr, "pipeline needs a backbone");
    _backbone->freeze(true);

    // Extract the Sec. 5.3 noise model once so the Noisy modality is
    // ready whenever the trainer switches to it.
    Rng mc(options.seed ^ 0xA5A5A5A5ULL);
    _encoder->setNoiseModel(extractNoiseModel(options.circuit, 200, mc));
    _encoder->setNoiseRng(&_noiseRng);
}

void
LecaPipeline::setModality(EncoderModality modality)
{
    _encoder->setModality(modality);
}

Tensor
LecaPipeline::forward(const Tensor &images, Mode mode)
{
    const Tensor features = encodeFeatures(images, mode);
    const Tensor decoded = _decoder->forward(features, mode);
    return _backbone->forward(decoded, mode);
}

Tensor
LecaPipeline::decodeImages(const Tensor &images, Mode mode)
{
    const Tensor features = encodeFeatures(images, mode);
    return _decoder->forward(features, mode);
}

Tensor
LecaPipeline::encodeFeatures(const Tensor &images, Mode mode)
{
    // Only the noisy path materialises a perturbed copy of the frame
    // (pixel-array shot + read noise, Sec. 5.3); the other modalities
    // read the caller's frame in place.
    if (_encoder->modality() == EncoderModality::Noisy)
        return _encoder->forward(_pixelNoise.apply(images, _noiseRng),
                                 mode);
    return _encoder->forward(images, mode);
}

void
LecaPipeline::backward(const Tensor &grad_logits)
{
    const Tensor g_decoded = _backbone->backward(grad_logits);
    const Tensor g_features = _decoder->backward(g_decoded);
    _encoder->backward(g_features);
}

std::vector<Param *>
LecaPipeline::allParams()
{
    std::vector<Param *> params = _encoder->params();
    const auto dec = _decoder->params();
    params.insert(params.end(), dec.begin(), dec.end());
    const auto bb = _backbone->params();
    params.insert(params.end(), bb.begin(), bb.end());
    return params;
}

void
LecaPipeline::setBackboneFrozen(bool frozen)
{
    _backbone->freeze(frozen);
}

namespace {

/** Adapter exposing the whole pipeline as one serializable layer. */
class PipelineBundle : public Layer
{
  public:
    PipelineBundle(LecaEncoder &enc, LecaDecoder &dec, Sequential &bb)
        : _enc(enc), _dec(dec), _bb(bb)
    {
    }

    Tensor forward(const Tensor &x, Mode) override { return x; }
    Tensor backward(const Tensor &g) override { return g; }

    // leca-analyze: cold — parameter enumeration (checkpoint/optimizer setup)
    std::vector<Param *>
    params() override
    {
        std::vector<Param *> out = _enc.params();
        for (Param *p : _dec.params())
            out.push_back(p);
        for (Param *p : _bb.params())
            out.push_back(p);
        return out;
    }

    // leca-analyze: cold — state enumeration (checkpoint setup)
    std::vector<Tensor *>
    state() override
    {
        std::vector<Tensor *> out = _dec.state();
        for (Tensor *t : _bb.state())
            out.push_back(t);
        return out;
    }

    // leca-analyze: cold — one-shot weight conversion (setup)
    void
    quantizeWeights(std::vector<QuantStat> &stats) override
    {
        _enc.quantizeWeights(stats);
        _dec.quantizeWeights(stats);
        _bb.quantizeWeights(stats);
    }

    // leca-analyze: cold — quantized-tensor enumeration (checkpoint setup)
    std::vector<QuantTensor *>
    quantTensors() override
    {
        std::vector<QuantTensor *> out = _enc.quantTensors();
        for (QuantTensor *qt : _dec.quantTensors())
            out.push_back(qt);
        for (QuantTensor *qt : _bb.quantTensors())
            out.push_back(qt);
        return out;
    }

  private:
    LecaEncoder &_enc;
    LecaDecoder &_dec;
    Sequential &_bb;
};

} // namespace

std::size_t
LecaPipeline::QuantizationReport::fp32Bytes() const
{
    std::size_t total = 0;
    for (const QuantStat &s : layers)
        total += s.fp32Bytes;
    return total;
}

std::size_t
LecaPipeline::QuantizationReport::quantBytes() const
{
    std::size_t total = 0;
    for (const QuantStat &s : layers)
        total += s.quantBytes;
    return total;
}

float
LecaPipeline::QuantizationReport::maxAbsError() const
{
    float worst = 0.0f;
    for (const QuantStat &s : layers)
        worst = worst > s.maxAbsError ? worst : s.maxAbsError;
    return worst;
}

LecaPipeline::QuantizationReport
LecaPipeline::quantize()
{
    PipelineBundle bundle(*_encoder, *_decoder, *_backbone);
    QuantizationReport report;
    bundle.quantizeWeights(report.layers);
    _quantized = true;
    return report;
}

// leca-analyze: keep: checkpoint API
void
LecaPipeline::save(const std::string &path)
{
    PipelineBundle bundle(*_encoder, *_decoder, *_backbone);
    saveLayerState(bundle, path);
}

bool
LecaPipeline::load(const std::string &path)
{
    PipelineBundle bundle(*_encoder, *_decoder, *_backbone);
    return loadLayerState(bundle, path);
}

// leca-analyze: keep: checkpoint API
void
LecaPipeline::saveQuantized(const std::string &path)
{
    LECA_CHECK(_quantized, "saveQuantized before quantize()");
    PipelineBundle bundle(*_encoder, *_decoder, *_backbone);
    saveQuantizedState(bundle, path);
}

// leca-analyze: keep: checkpoint API
bool
LecaPipeline::loadQuantized(const std::string &path)
{
    PipelineBundle bundle(*_encoder, *_decoder, *_backbone);
    if (!loadQuantizedState(bundle, path))
        return false;
    // Restores bypass quantizeWeights, so build the resident execution
    // plans here; the HWC layouts derive from the restored CODES, so
    // this inference is bit-identical to a quantize()d pipeline's.
    _decoder->net().planQuantized();
    _backbone->planQuantized();
    _quantized = true;
    return true;
}

void
LecaPipeline::refreshStats(const Dataset &ds, int batch_size)
{
    LECA_CHECK(batch_size > 0, "refreshStats batch size ", batch_size);
    const int c = ds.images.size(1), h = ds.images.size(2);
    const int w = ds.images.size(3);
    const std::size_t img_sz = static_cast<std::size_t>(c) * h * w;
    _decoder->setStatsRefresh(true);
    _backbone->setStatsRefresh(true);
    for (int begin = 0; begin < ds.count(); begin += batch_size) {
        const int count = std::min(batch_size, ds.count() - begin);
        const Tensor batch = Tensor::borrow(
            {count, c, h, w}, ds.images.data() + begin * img_sz);
        forward(batch, Mode::Train);
    }
    _decoder->setStatsRefresh(false);
    _backbone->setStatsRefresh(false);
}

double
LecaPipeline::evalAccuracy(const Dataset &ds, int batch_size)
{
    LECA_CHECK(batch_size > 0, "evalAccuracy batch size ", batch_size);
    const int n = ds.count();
    if (n == 0)
        return 0.0;
    const int c = ds.images.size(1), h = ds.images.size(2);
    const int w = ds.images.size(3);
    const std::size_t img_sz = static_cast<std::size_t>(c) * h * w;
    int correct = 0;
    // Batches stay sequential — the encoder/decoder/backbone layers
    // cache per-call state, so parallelism lives inside each forward
    // (per-image conv, GEMM row panels) instead of across batches.
    // Each batch is a borrowed view of the dataset slab — no copy.
    for (int begin = 0; begin < n; begin += batch_size) {
        const int count = std::min(batch_size, n - begin);
        const Tensor batch = Tensor::borrow(
            {count, c, h, w}, ds.images.data() + begin * img_sz);
        const Tensor logits = forward(batch, Mode::Eval);
        const std::vector<int> labels(ds.labels.begin() + begin,
                                      ds.labels.begin() + begin + count);
        correct += roundToInt(accuracy(logits, labels) * count);
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

} // namespace leca
