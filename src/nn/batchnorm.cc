#include "batchnorm.hh"

#include <cmath>

#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

BatchNorm2d::BatchNorm2d(int channels, float momentum, float eps)
    : _channels(channels), _momentum(momentum), _eps(eps),
      _gamma(Tensor::full({channels}, 1.0f)),
      _beta(Tensor({channels})),
      _runningMean({channels}),
      _runningVar(Tensor::full({channels}, 1.0f))
{
    LECA_CHECK(channels > 0, "BatchNorm2d channels ", channels);
    LECA_CHECK(momentum > 0.0f && momentum <= 1.0f, "BatchNorm2d momentum ",
               momentum);
    LECA_CHECK(eps > 0.0f, "BatchNorm2d eps ", eps);
}

Tensor
BatchNorm2d::forward(const Tensor &x, Mode mode)
{
    LECA_CHECK(x.dim() == 4 && x.size(1) == _channels,
               "BatchNorm2d(", _channels, ") input shape ",
               detail::formatShape(x.shape()));
    const int n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    const std::size_t plane = static_cast<std::size_t>(h) * w;
    const double count = static_cast<double>(n) * h * w;

    Tensor y(x.shape());
    if (mode == Mode::Train && _refresh)
        ++_refreshCount;
    if (mode == Mode::Train) {
        _fwdFrozen = frozen();
        _xhat = Tensor(x.shape());
        _batchStd.assign(static_cast<std::size_t>(c), 0.0f);
        // Channels are independent (stats, running buffers, outputs all
        // indexed by ch) and each channel's accumulation stays serial,
        // so the per-channel numbers are bit-identical at any thread
        // count.
        parallelFor(0, c, 1, [&](std::int64_t c0, std::int64_t c1) {
        for (int ch = static_cast<int>(c0); ch < c1; ++ch) {
            double sum = 0.0, sq = 0.0;
            for (int i = 0; i < n; ++i) {
                const float *src =
                    x.data() + ((static_cast<std::size_t>(i) * c + ch))
                    * plane;
                for (std::size_t p = 0; p < plane; ++p) {
                    sum += src[p];
                    sq += static_cast<double>(src[p]) * src[p];
                }
            }
            const double m = sum / count;
            const double var = sq / count - m * m;
            const float std = static_cast<float>(std::sqrt(var + _eps));
            _batchStd[static_cast<std::size_t>(ch)] = std;

            auto &rm = _runningMean[static_cast<std::size_t>(ch)];
            auto &rv = _runningVar[static_cast<std::size_t>(ch)];
            // During a refresh pass the running statistics are the
            // exact cumulative average over the refresh batches.
            const float mom = _refresh
                ? 1.0f / static_cast<float>(_refreshCount)
                : _momentum;
            rm = (1.0f - mom) * rm + mom * static_cast<float>(m);
            rv = (1.0f - mom) * rv + mom * static_cast<float>(var);

            const float g = _gamma.value[static_cast<std::size_t>(ch)];
            const float b = _beta.value[static_cast<std::size_t>(ch)];
            for (int i = 0; i < n; ++i) {
                const std::size_t off =
                    (static_cast<std::size_t>(i) * c + ch) * plane;
                const float *src = x.data() + off;
                float *xh = _xhat.data() + off;
                float *dst = y.data() + off;
                for (std::size_t p = 0; p < plane; ++p) {
                    const float v =
                        (src[p] - static_cast<float>(m)) / std;
                    xh[p] = v;
                    dst[p] = g * v + b;
                }
            }
        }
        });
    } else {
        parallelFor(0, c, 1, [&](std::int64_t c0, std::int64_t c1) {
        for (int ch = static_cast<int>(c0); ch < c1; ++ch) {
            const float m = _runningMean[static_cast<std::size_t>(ch)];
            const float std = std::sqrt(
                _runningVar[static_cast<std::size_t>(ch)] + _eps);
            const float g = _gamma.value[static_cast<std::size_t>(ch)];
            const float b = _beta.value[static_cast<std::size_t>(ch)];
            for (int i = 0; i < n; ++i) {
                const std::size_t off =
                    (static_cast<std::size_t>(i) * c + ch) * plane;
                const float *src = x.data() + off;
                float *dst = y.data() + off;
                for (std::size_t p = 0; p < plane; ++p)
                    dst[p] = g * (src[p] - m) / std + b;
            }
        }
        });
    }
    return y;
}

Tensor
BatchNorm2d::backward(const Tensor &grad_out)
{
    LECA_CHECK(_xhat.numel() > 0, "BatchNorm2d backward without forward");
    LECA_CHECK(frozen() == _fwdFrozen, "BatchNorm2d frozen state changed "
                                       "between forward and backward");
    LECA_CHECK_SAME_SHAPE(grad_out, _xhat);
    const int n = grad_out.size(0), c = grad_out.size(1);
    const int h = grad_out.size(2), w = grad_out.size(3);
    const std::size_t plane = static_cast<std::size_t>(h) * w;
    const double count = static_cast<double>(n) * h * w;

    Tensor dx(grad_out.shape());
    parallelFor(0, c, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (int ch = static_cast<int>(c0); ch < c1; ++ch) {
        const float g = _gamma.value[static_cast<std::size_t>(ch)];
        const float std = _batchStd[static_cast<std::size_t>(ch)];
        double sum_dy = 0.0, sum_dy_xhat = 0.0;
        for (int i = 0; i < n; ++i) {
            const std::size_t off =
                (static_cast<std::size_t>(i) * c + ch) * plane;
            const float *dy = grad_out.data() + off;
            const float *xh = _xhat.data() + off;
            for (std::size_t p = 0; p < plane; ++p) {
                sum_dy += dy[p];
                sum_dy_xhat += static_cast<double>(dy[p]) * xh[p];
            }
        }
        if (!_fwdFrozen) {
            _gamma.grad[static_cast<std::size_t>(ch)] +=
                static_cast<float>(sum_dy_xhat);
            _beta.grad[static_cast<std::size_t>(ch)] +=
                static_cast<float>(sum_dy);
        }

        const float mean_dy = static_cast<float>(sum_dy / count);
        const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / count);
        for (int i = 0; i < n; ++i) {
            const std::size_t off =
                (static_cast<std::size_t>(i) * c + ch) * plane;
            const float *dy = grad_out.data() + off;
            const float *xh = _xhat.data() + off;
            float *d = dx.data() + off;
            for (std::size_t p = 0; p < plane; ++p) {
                d[p] = g / std
                       * (dy[p] - mean_dy - xh[p] * mean_dy_xhat);
            }
        }
    }
    });
    _xhat = Tensor();
    return dx;
}

void
BatchNorm2d::evalAffineInto(float *a, float *b) const
{
    for (int ch = 0; ch < _channels; ++ch) {
        const std::size_t i = static_cast<std::size_t>(ch);
        const float std = std::sqrt(_runningVar[i] + _eps);
        a[ch] = _gamma.value[i] / std;
        b[ch] = _beta.value[i] - a[ch] * _runningMean[i];
    }
}

void
BatchNorm2d::setStatsRefresh(bool enable)
{
    _refresh = enable;
    _refreshCount = 0;
}

} // namespace leca
