#include "pipeline.hh"

#include "analog/mismatch.hh"
#include "core/decoder.hh"
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
    _decoder = makeDecoder(options.leca, init);
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
    planQuantized(*this);
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
    // The same planning pass quantize() ends in: the HWC layouts and
    // packs derive from the restored CODES, so this inference is
    // bit-identical to a quantize()d pipeline's.
    planQuantized(*this);
    _quantized = true;
    return true;
}

} // namespace leca
