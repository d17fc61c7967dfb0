#include "pipeline.hh"

#include "analog/mismatch.hh"
#include "data/serialize.hh"
#include "util/check.hh"

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

Tensor
LecaPipeline::backward(const Tensor &grad_logits)
{
    const Tensor g_decoded = _backbone->backward(grad_logits);
    const Tensor g_features = _decoder->backward(g_decoded);
    return _encoder->backward(g_features);
}

namespace {

/** @p get of each of @p children, concatenated in order. */
template <typename Get>
auto
concat(const std::array<Layer *, 3> &children, Get get)
{
    decltype(get(*children[0])) out;
    for (Layer *child : children) {
        const auto more = get(*child);
        out.insert(out.end(), more.begin(), more.end());
    }
    return out;
}

} // namespace

// leca-analyze: cold — parameter enumeration (checkpoint/optimizer setup)
std::vector<Param *>
LecaPipeline::params()
{
    return concat(children(), [](Layer &l) { return l.params(); });
}

// leca-analyze: cold — state enumeration (checkpoint setup)
std::vector<Tensor *>
LecaPipeline::state()
{
    return concat(children(), [](Layer &l) { return l.state(); });
}

// leca-analyze: cold — quantized-tensor enumeration (checkpoint setup)
std::vector<QuantTensor *>
LecaPipeline::quantTensors()
{
    return concat(children(), [](Layer &l) { return l.quantTensors(); });
}

void
LecaPipeline::setStatsRefresh(bool enable)
{
    for (Layer *child : children())
        child->setStatsRefresh(enable);
}

// leca-analyze: cold — one-shot weight conversion (setup)
void
LecaPipeline::quantizeWeights(std::vector<QuantStat> &stats)
{
    for (Layer *child : children())
        child->quantizeWeights(stats);
}

void
LecaPipeline::setBackboneFrozen(bool frozen)
{
    _backbone->freeze(frozen);
}

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
    QuantizationReport report;
    quantizeWeights(report.layers);
    _quantized = true;
    return report;
}

// leca-analyze: keep: checkpoint API
void
LecaPipeline::save(const std::string &path)
{
    saveLayerState(*this, path);
}

bool
LecaPipeline::load(const std::string &path)
{
    return loadLayerState(*this, path);
}

// leca-analyze: keep: checkpoint API
void
LecaPipeline::saveQuantized(const std::string &path)
{
    LECA_CHECK(_quantized, "saveQuantized before quantize()");
    saveQuantizedState(*this, path);
}

// leca-analyze: keep: checkpoint API
bool
LecaPipeline::loadQuantized(const std::string &path)
{
    if (!loadQuantizedState(*this, path))
        return false;
    // Restores bypass quantizeWeights, so build the resident execution
    // plans here; the HWC layouts derive from the restored CODES, so
    // this inference is bit-identical to a quantize()d pipeline's.
    _decoder->net().planQuantized();
    _backbone->planQuantized();
    _quantized = true;
    return true;
}

} // namespace leca
