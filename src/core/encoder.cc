#include "encoder.hh"

#include <algorithm>
#include <type_traits>

#include "analog/chain.hh"
#include "hw/weights.hh"
#include "util/arena.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

namespace {

/**
 * @p config after validating it and @p circuit. Runs first in the
 * member-init list, so a bad config fails before the conv is sized
 * from it.
 */
const LecaConfig &
validated(const LecaConfig &config, const CircuitConfig &circuit)
{
    config.validate();
    circuit.validate();
    return config;
}

} // namespace

LecaEncoder::LecaEncoder(const LecaConfig &config,
                         const CircuitConfig &circuit,
                         const SensorConfig &sensor, Rng &init_rng)
    : _config(validated(config, circuit)), _circuit(circuit),
      _sensor(sensor),
      _conv(config.inChannels, config.nch, config.kernel, config.kernel, 0,
            false, init_rng),
      _outScale(Tensor({1}))
{
    _outScale.value[0] = 1.0f;
}

std::vector<Param *>
LecaEncoder::params()
{
    return {&_conv.weight(), &_outScale};
}

void
LecaEncoder::quantizeWeights(std::vector<QuantStat> &stats)
{
    if (_modality != EncoderModality::Soft)
        return; // hard/noisy forwards are the circuit model, not a GEMM
    _conv.quantizeWeights(stats);
    stats.back().name.insert(0, "Encoder ");
}

void
LecaEncoder::setModality(EncoderModality modality)
{
    if (modality != EncoderModality::Soft) {
        LECA_CHECK(_config.kernel == 2,
                   "hardware modalities require K = 2 (Sec. 3.3), got K = ",
                   _config.kernel);
    }
    if (modality != _modality) {
        // The output scale lives in different units per modality
        // (conv units vs volts); re-seed it on a switch. This is the
        // "no trivial mapping" of Sec. 6.2 made concrete.
        _outScale.value[0] =
            modality == EncoderModality::Soft ? 1.0f : 0.3f;
    }
    _modality = modality;
}

void
LecaEncoder::setNoiseModel(AnalogNoiseModel model)
{
    LECA_CHECK(!model.scm.epsSurface.empty()
                   && model.scm.epsSigma.size()
                          > static_cast<std::size_t>(_circuit.dacSteps()),
               "noise model lacks the SCM step-error surface or a step "
               "sigma for every cap code 0..", _circuit.dacSteps());
    _noiseModel = std::move(model);
    _hasNoiseModel = true;
}

Tensor
LecaEncoder::forward(const Tensor &x, Mode mode)
{
    switch (_modality) {
      case EncoderModality::Soft:
        return forwardSoft(x, mode);
      case EncoderModality::Hard:
        return forwardHard(x, mode, false);
      case EncoderModality::Noisy:
        return forwardHard(x, mode, true);
    }
    throw CheckError("known modality", __FILE__, __LINE__,
                     "unknown modality " + std::to_string(int(_modality)));
}

Tensor
LecaEncoder::backward(const Tensor &grad_out)
{
    if (_modality == EncoderModality::Soft)
        return backwardSoft(grad_out);
    return backwardHard(grad_out);
}

// ---------------------------------------------------------------------
// Soft modality: conv (stride = K) -> scale -> STE quantizer.
// ---------------------------------------------------------------------

Tensor
LecaEncoder::forwardSoft(const Tensor &x, Mode mode)
{
    Tensor pre = _conv.forward(x, mode);
    const float s = std::max(_outScale.value[0], 0.05f);
    const int levels = _config.qbits.levels();
    Tensor features(pre.shape());
    const float *pp = pre.data();
    float *fp = features.data();
    parallelFor(0, static_cast<std::int64_t>(pre.numel()), 4096,
                [&](std::int64_t i0, std::int64_t i1) {
                    for (std::int64_t i = i0; i < i1; ++i)
                        fp[i] =
                            quantizeUniform(pp[i] / s, -1.0f, 1.0f, levels);
                });
    if (mode == Mode::Train)
        _softPre = std::move(pre);
    return features;
}

Tensor
LecaEncoder::backwardSoft(const Tensor &grad_out)
{
    LECA_CHECK(_softPre.numel() > 0, "soft encoder backward without forward");
    const float s = std::max(_outScale.value[0], 0.05f);

    // STE through the quantizer and scale division. The g_s summation
    // stays serial so the double accumulation order is fixed.
    Tensor g_pre(grad_out.shape());
    const float *go = grad_out.data();
    const float *sp = _softPre.data();
    float *gp = g_pre.data();
    double g_s = 0.0;
    for (std::size_t i = 0; i < grad_out.numel(); ++i) {
        const float ratio = sp[i] / s;
        if (ratio >= -1.0f && ratio <= 1.0f) {
            gp[i] = go[i] / s;
            g_s += static_cast<double>(go[i]) * (-sp[i]) / (s * s);
        } else {
            gp[i] = 0.0f;
        }
    }
    _outScale.grad[0] += static_cast<float>(g_s);
    _softPre = Tensor();
    return _conv.backward(g_pre);
}

// ---------------------------------------------------------------------
// Hard / Noisy modality: analog/chain.hh over Ideal / Extracted devices.
// ---------------------------------------------------------------------

namespace {

/** Raw-domain taps per output element (the 4x4 Bayer block). */
constexpr int kTaps = 16;

/** One (kernel, tap)'s constants for the hand-derived backward. */
struct TapGrad
{
    double cap;     //!< capacitance unit * mag, as the float cached (fF)
    double dwSlope; //!< d cap / d w: the STE slope times the Bayer factor
    int wIndex;     //!< flat index of the tap's weight within the tensor
    bool neg;       //!< the tap charges the minus o-buffer
};

} // namespace

// leca-analyze: entry
Tensor
LecaEncoder::forwardHard(const Tensor &x, Mode mode, bool noisy)
{
    LECA_CHECK(x.dim() == 4 && x.size(1) == 3,
               "hard encoder expects [N,3,H,W] input, got ",
               detail::formatShape(x.shape()));
    LECA_CHECK(x.size(2) % 2 == 0 && x.size(3) % 2 == 0,
               "hard encoder needs even spatial extents for the 2x2 Bayer "
               "flattening, got ", x.size(2), "x", x.size(3));
    LECA_CHECK(!noisy || (_hasNoiseModel && _noiseRng),
               "noisy modality needs a noise model and rng installed");
    const int n = x.size(0), h = x.size(2), w = x.size(3);
    const int oh = h / 2, ow = w / 2;
    const int nch = _config.nch;
    const int levels = _config.qbits.levels();
    const float fs = std::max(_outScale.value[0], 0.02f);

    const std::size_t plane = static_cast<std::size_t>(h) * w;
    const std::size_t in_sz = 3 * plane;
    const std::size_t ohow = static_cast<std::size_t>(oh) * ow;
    const std::size_t elems = static_cast<std::size_t>(n) * nch * ohow;
    const bool cache = mode == Mode::Train;
    if (cache) {
        _stepVin.assign(elems * kTaps, 0.0f);
        _stepVprev.assign(elems * kTaps, 0.0f);
        _diff.assign(elems, 0.0f);
        _inShape = x.shape();
    }

    Arena &arena = Arena::local();
    Arena::Scope scope;
    // The cap codes the chip would be programmed with, once per call.
    ScmWeight *taps =
        arena.allocArray<ScmWeight>(static_cast<std::size_t>(nch) * kTaps);
    for (int kch = 0; kch < nch; ++kch)
        flattenKernelInto(_conv.weight().value, kch, _weightScale,
                          _circuit.dacSteps(), taps + kch * kTaps);
    // Offset of each tap's pixel from its block's top-left pixel.
    std::size_t tap_off[kTaps];
    for (int t = 0; t < kTaps; ++t) {
        const BayerTap &tap = kBayerTaps[static_cast<std::size_t>(t)];
        tap_off[t] = static_cast<std::size_t>(tap.channel) * plane
                     + static_cast<std::size_t>(tap.py) * w + tap.px;
    }
    // One pre-split noise stream per image (forked before the parallel
    // region), so noise draws depend only on the image index and the
    // output is bit-identical at every thread count.
    Rng *noise_rngs = nullptr;
    if (noisy) {
        noise_rngs = arena.allocArray<Rng>(static_cast<std::size_t>(n));
        Rng::splitInto(*_noiseRng, noise_rngs, static_cast<std::size_t>(n));
    }

    Tensor features({n, nch, oh, ow});
    float *feat = features.data();
    auto encodeImage = [&](int i, const auto &dev) {
        using Level = typename std::decay_t<decltype(dev)>::Level;
        // The PSF transfer of every pixel of this image, computed once
        // and read by all nch kernels.
        Arena::Scope image_scope;
        const float *xi = x.data() + static_cast<std::size_t>(i) * in_sz;
        Level *level = Arena::local().allocArray<Level>(in_sz);
        for (std::size_t p = 0; p < in_sz; ++p)
            level[p] = dev.psf(
                _sensor.digitalToVoltage(static_cast<double>(xi[p])));
        for (int kch = 0; kch < nch; ++kch) {
            const ScmWeight *kernel = taps + kch * kTaps;
            // Element index derived from the loop indices, not a
            // running counter, so images write disjoint cache slices.
            std::size_t e = (static_cast<std::size_t>(i) * nch + kch) * ohow;
            for (int by = 0; by < oh; ++by) {
                for (int bx = 0; bx < ow; ++bx, ++e) {
                    const Level *block =
                        level + static_cast<std::size_t>(2 * by) * w + 2 * bx;
                    DiffBuffer rails(_circuit.vCm);
                    accumulateTaps(
                        dev, kernel, kTaps,
                        [&](int t) -> const Level & {
                            return block[tap_off[t]];
                        },
                        rails, cache ? &_stepVin[e * kTaps] : nullptr,
                        cache ? &_stepVprev[e * kTaps] : nullptr);
                    const double diff = readOut(dev, rails);
                    const int q = quantizeCode(
                        static_cast<float>(diff), -fs, fs, levels);
                    feat[e] = dequantizeCode(q, -1.0f, 1.0f, levels);
                    if (cache)
                        _diff[e] = static_cast<float>(diff);
                }
            }
        }
    };
    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (int i = static_cast<int>(n0); i < n1; ++i) {
            if (noisy)
                encodeImage(i, ExtractedDevice(_noiseModel, _circuit,
                                               noise_rngs[i]));
            else
                encodeImage(i, IdealDevice(_circuit));
        }
    });
    return features;
}

// leca-analyze: entry
Tensor
LecaEncoder::backwardHard(const Tensor &grad_out)
{
    LECA_CHECK(!_diff.empty(), "hard encoder backward without forward");
    const int n = _inShape[0];
    const int oh = _inShape[2] / 2, ow = _inShape[3] / 2;
    const int nch = _config.nch;
    LECA_CHECK(grad_out.dim() == 4 && grad_out.size(0) == n
                   && grad_out.size(1) == nch && grad_out.size(2) == oh
                   && grad_out.size(3) == ow,
               "hard encoder grad shape ",
               detail::formatShape(grad_out.shape()));
    const double cout = _circuit.cOutFf;
    const double vcm = _circuit.vCm;
    const float fs = std::max(_outScale.value[0], 0.02f);
    const double fvf_gain = _circuit.fvf.gain;

    const std::size_t ohow = static_cast<std::size_t>(oh) * ow;
    const std::size_t elems = _diff.size();
    const float *go = grad_out.data();
    float *gw = _conv.weight().grad.data();

    Arena &arena = Arena::local();
    Arena::Scope scope;
    // Per-(kernel, tap) constants, once per call, from the cap codes.
    const std::size_t ntaps = static_cast<std::size_t>(nch) * kTaps;
    const double unit = _circuit.unitCapFf();
    ScmWeight *taps = arena.allocArray<ScmWeight>(ntaps);
    TapGrad *tap_grads = arena.allocArray<TapGrad>(ntaps);
    for (int kch = 0; kch < nch; ++kch)
        flattenKernelInto(_conv.weight().value, kch, _weightScale,
                          _circuit.dacSteps(), taps + kch * kTaps);
    // The STE passes the gradient straight over the code rounding:
    // d cap / d w_tap = +-unit * steps / wscale.
    const double dcap_dw = unit * _circuit.dacSteps() / _weightScale;
    for (std::size_t j = 0; j < ntaps; ++j) {
        const ScmWeight q = taps[j];
        const BayerTap &tap = kBayerTaps[j % kTaps];
        tap_grads[j] = {static_cast<float>(unit * q.magnitude),
                        (q.negative ? -dcap_dw : dcap_dw) * tap.factor,
                        static_cast<int>(j / kTaps) * 12 + tap.weightOffset(),
                        q.negative};
    }
    // Per-element output-scale gradients, summed serially below in
    // ascending element order.
    double *fs_grads = arena.allocArray<double>(elems);
    // One kernel per task: a kernel's weight gradients accumulate only
    // from its own elements, in ascending element then descending tap
    // order — the serial loop's order — so the accumulated weight and
    // scale gradients are bit-identical at every thread count.
    parallelFor(0, nch, 1, [&](std::int64_t k0, std::int64_t k1) {
    for (int kch = static_cast<int>(k0); kch < k1; ++kch) {
        const TapGrad *code = tap_grads + kch * kTaps;
        for (int i = 0; i < n; ++i) {
            const std::size_t e0 =
                (static_cast<std::size_t>(i) * nch + kch) * ohow;
            for (std::size_t e = e0; e < e0 + ohow; ++e) {
                fs_grads[e] = 0.0;
                const float g_feat = go[e];
                if (g_feat == 0.0f)
                    continue;
                const double diff = _diff[e];
                if (diff < -fs || diff > fs)
                    continue; // clipped STE region
                // feature ~= diff / fs under the STE.
                const double g_diff = g_feat / fs;
                fs_grads[e] = g_feat * (-diff / (fs * fs));

                double g_plus = g_diff * fvf_gain;
                double g_minus = -g_diff * fvf_gain;

                // Reverse the 16-step recurrence. The step state is
                // read back as the float the forward cached, the
                // capacitance likewise.
                for (int t = kTaps - 1; t >= 0; --t) {
                    const TapGrad &c = code[t];
                    double &g_rail = c.neg ? g_minus : g_plus;
                    const double cap = c.cap;
                    const double vin = _stepVin[e * kTaps + t];
                    const double v_prev = _stepVprev[e * kTaps + t];

                    double g_cap;
                    if (cap > 0.0) {
                        const double denom = cout + cap;
                        const double v_after =
                            (cap * (2.0 * vcm - vin) + cout * v_prev)
                            / denom;
                        g_cap = g_rail * ((2.0 * vcm - vin) - v_after)
                                / denom;
                        g_rail = g_rail * cout / denom;
                    } else {
                        // STE through the zero code: gradient of the
                        // limit cap -> 0+ keeps dead taps trainable.
                        g_cap = g_rail * ((2.0 * vcm - vin) - v_prev)
                                / cout;
                    }
                    const float g = static_cast<float>(g_cap * c.dwSlope);
                    if (g != 0.0f)
                        gw[c.wIndex] += g;
                }
            }
        }
    }
    });

    double g_fs_total = 0.0;
    for (std::size_t e = 0; e < elems; ++e)
        g_fs_total += fs_grads[e];
    _outScale.grad[0] += static_cast<float>(g_fs_total);

    _diff.clear();
    _stepVin.clear();
    _stepVprev.clear();
    return Tensor(_inShape);
}

} // namespace leca
