#include "encoder.hh"

#include <algorithm>
#include <cmath>

#include "analog/buffers.hh"
#include "analog/scm.hh"
#include "util/arena.hh"
#include "util/check.hh"
#include "util/logging.hh"
#include "util/numeric.hh"
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
    _noiseModel = std::move(model);
    _hasNoiseModel = true;
}

const std::array<LecaEncoder::Tap, 16> &
LecaEncoder::rawTaps()
{
    // Raw-domain 4x4 block in row-major order; RGGB with duplicated
    // green (Fig. 5(a)). Channel indices: 0 = R, 1 = G, 2 = B.
    static const std::array<Tap, 16> taps = {{
        {0, 0, 0, 1.0f}, {1, 0, 0, 0.5f}, {0, 0, 1, 1.0f}, {1, 0, 1, 0.5f},
        {1, 0, 0, 0.5f}, {2, 0, 0, 1.0f}, {1, 0, 1, 0.5f}, {2, 0, 1, 1.0f},
        {0, 1, 0, 1.0f}, {1, 1, 0, 0.5f}, {0, 1, 1, 1.0f}, {1, 1, 1, 0.5f},
        {1, 1, 0, 0.5f}, {2, 1, 0, 1.0f}, {1, 1, 1, 0.5f}, {2, 1, 1, 1.0f},
    }};
    return taps;
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
    panic("unknown modality");
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
// Hard / Noisy modality: the analog circuit model of Sec. 3.4 / 5.3.
// ---------------------------------------------------------------------

namespace {

/** Raw-domain taps per output element (the 4x4 Bayer block). */
constexpr int kTaps = 16;

} // namespace

/**
 * One (kernel, tap) cap-DAC setting. It depends only on the weights,
 * so forwardHard/backwardHard build the table once per call instead of
 * re-quantizing every tap for every output element.
 */
struct LecaEncoder::TapCode
{
    double cap;    //!< sampling capacitance unit * mag (fF)
    double dcapDw; //!< STE slope d cap / d w_tap over the code rounding
    int wIndex;    //!< flat index of the tap's weight within the tensor
    int mag;       //!< cap-DAC magnitude code, 0..dacSteps
    bool neg;      //!< the tap charges the minus o-buffer
};

void
LecaEncoder::tapCodesInto(TapCode *codes) const
{
    const int nch = _config.nch;
    const int steps = _circuit.dacSteps();
    const float wscale = _weightScale;
    const double unit = _circuit.unitCapFf();
    const auto &taps = rawTaps();
    const Tensor &weight = _conv.weight().value;
    const float *wv = weight.data();
    const int kstride = static_cast<int>(weight.numel()) / nch;
    for (int kch = 0; kch < nch; ++kch) {
        for (int t = 0; t < kTaps; ++t) {
            const Tap &tap = taps[static_cast<std::size_t>(t)];
            const int wi =
                kch * kstride + (tap.channel * 2 + tap.py) * 2 + tap.px;
            const float w_tap = wv[wi] * tap.factor;
            int mag = roundToInt(std::abs(w_tap) / wscale * steps);
            mag = std::clamp(mag, 0, steps);
            const bool neg = w_tap < 0.0f;
            // cap = unit * round(|w_tap|/wscale * steps); the STE
            // passes the gradient straight over the rounding.
            codes[kch * kTaps + t] = {
                unit * mag, (neg ? -1.0 : 1.0) * unit * steps / wscale, wi,
                mag, neg};
        }
    }
}

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
    const double vcm = _circuit.vCm;

    const SourceFollower psf(_circuit.psf);
    const SourceFollower fvf(_circuit.fvf);
    const auto &taps = rawTaps();

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
    TapCode *codes = arena.allocArray<TapCode>(
        static_cast<std::size_t>(nch) * kTaps);
    tapCodesInto(codes);
    // Offset of each tap's pixel from its block's top-left pixel.
    std::size_t tap_off[kTaps];
    for (int t = 0; t < kTaps; ++t) {
        const Tap &tap = taps[static_cast<std::size_t>(t)];
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
    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (int i = static_cast<int>(n0); i < n1; ++i) {
        Rng *rng = noisy ? &noise_rngs[i] : nullptr;
        // The PSF transfer of every pixel of this image, computed once
        // and read by all nch kernels: the linear model in Hard mode
        // (vin itself), the LUT mean and disturbance sigma of vin in
        // Noisy mode.
        Arena::Scope image_scope;
        const float *xi = x.data() + static_cast<std::size_t>(i) * in_sz;
        Arena &worker_arena = Arena::local();
        double *vin_mean = worker_arena.allocArray<double>(in_sz);
        double *vin_sigma =
            noisy ? worker_arena.allocArray<double>(in_sz) : nullptr;
        for (std::size_t p = 0; p < in_sz; ++p) {
            const double vpix =
                _sensor.digitalToVoltage(static_cast<double>(xi[p]));
            if (noisy) {
                vin_mean[p] = _noiseModel.psf.meanTransfer(vpix);
                vin_sigma[p] = _noiseModel.psf.sigma(vpix);
            } else {
                vin_mean[p] = psf.linearModel(vpix);
            }
        }
        for (int kch = 0; kch < nch; ++kch) {
            const TapCode *code = codes + kch * kTaps;
            // Element index derived from the loop indices, not a
            // running counter, so images write disjoint cache slices.
            std::size_t e = (static_cast<std::size_t>(i) * nch + kch) * ohow;
            for (int by = 0; by < oh; ++by) {
                for (int bx = 0; bx < ow; ++bx, ++e) {
                    const std::size_t block =
                        static_cast<std::size_t>(2 * by) * w + 2 * bx;
                    double v_plus = vcm, v_minus = vcm;
                    for (int t = 0; t < kTaps; ++t) {
                        const TapCode &c = code[t];
                        const std::size_t px = block + tap_off[t];
                        const double vin =
                            noisy
                                ? rng->gaussian(vin_mean[px], vin_sigma[px])
                                : vin_mean[px];
                        double &rail = c.neg ? v_minus : v_plus;
                        if (cache) {
                            _stepVin[e * kTaps + t] =
                                static_cast<float>(vin);
                            _stepVprev[e * kTaps + t] =
                                static_cast<float>(rail);
                        }
                        if (c.mag > 0) {
                            double next = ScMultiplier::idealStep(
                                _circuit, rail, vin, c.cap);
                            if (noisy) {
                                // Fine-grained eps(V_in, code) surface
                                // when extracted; per-code mean
                                // otherwise (Sec. 5.3, item 2).
                                const auto mag =
                                    static_cast<std::size_t>(c.mag);
                                const double eps_mean =
                                    _noiseModel.scm.epsSurface.empty()
                                        ? _noiseModel.scm.epsMean[mag]
                                        : _noiseModel.scm.epsSurface(
                                              vin, c.mag);
                                next -= rng->gaussian(
                                    eps_mean,
                                    _noiseModel.scm.epsSigma[mag]);
                            }
                            rail = next;
                        }
                    }
                    double p, m;
                    if (noisy) {
                        p = rng->gaussian(
                            _noiseModel.fvf.meanTransfer(v_plus),
                            _noiseModel.fvf.sigma(v_plus));
                        m = rng->gaussian(
                            _noiseModel.fvf.meanTransfer(v_minus),
                            _noiseModel.fvf.sigma(v_minus));
                    } else {
                        p = fvf.linearModel(v_plus);
                        m = fvf.linearModel(v_minus);
                    }
                    double diff = p - m;
                    if (noisy) {
                        diff += rng->gaussian(
                            0.0, _noiseModel.adcOffsetSigma);
                    }
                    const int q = quantizeCode(
                        static_cast<float>(diff), -fs, fs, levels);
                    feat[e] = 2.0f * static_cast<float>(q)
                              / static_cast<float>(levels - 1) - 1.0f;
                    if (cache)
                        _diff[e] = static_cast<float>(diff);
                }
            }
        }
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
    const auto &taps = rawTaps();

    const std::size_t ohow = static_cast<std::size_t>(oh) * ow;
    const std::size_t elems = _diff.size();
    const float *go = grad_out.data();
    float *gw = _conv.weight().grad.data();

    Arena &arena = Arena::local();
    Arena::Scope scope;
    TapCode *codes = arena.allocArray<TapCode>(
        static_cast<std::size_t>(nch) * kTaps);
    tapCodesInto(codes);
    // Per-element output-scale gradients, summed serially below in
    // ascending element order.
    double *fs_grads = arena.allocArray<double>(elems);
    // One kernel per task: a kernel's weight gradients accumulate only
    // from its own elements, in ascending element then descending tap
    // order — the serial loop's order — so the accumulated weight and
    // scale gradients are bit-identical at every thread count.
    parallelFor(0, nch, 1, [&](std::int64_t k0, std::int64_t k1) {
    for (int kch = static_cast<int>(k0); kch < k1; ++kch) {
        const TapCode *code = codes + kch * kTaps;
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
                    const TapCode &c = code[t];
                    double &g_rail = c.neg ? g_minus : g_plus;
                    const double cap = static_cast<float>(c.cap);
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
                    const float g = static_cast<float>(
                        g_cap * c.dcapDw
                        * taps[static_cast<std::size_t>(t)].factor);
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
