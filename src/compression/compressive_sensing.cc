#include "compressive_sensing.hh"

#include <algorithm>
#include <cmath>

#include "nn/quantize.hh"
#include "util/check.hh"
#include "util/rng.hh"

namespace leca {

CompressiveSensing::CompressiveSensing(int ratio, std::uint64_t seed,
                                       int ista_iters)
    : _ratio(ratio), _m(64 / ratio), _istaIters(ista_iters)
{
    LECA_CHECK(64 % ratio == 0, "CS ratio must divide 64");
    Rng rng(seed);
    const float scale = 1.0f / std::sqrt(static_cast<float>(_m));
    _phi.resize(static_cast<std::size_t>(_m) * 64);
    for (auto &v : _phi)
        v = rng.uniform() < 0.5 ? -scale : scale;

    // Sensing matrix in the DCT coefficient domain: A = Phi * B where
    // x = B s is the inverse 2-D DCT (B orthonormal).
    std::vector<float> basis(64 * 64);
    for (int p = 0; p < 64; ++p) {
        const int y = p / 8, x = p % 8;
        for (int k = 0; k < 64; ++k) {
            const int u = k / 8, v = k % 8;
            basis[static_cast<std::size_t>(p) * 64 + k] =
                static_cast<float>(_dct.basis(u, y) * _dct.basis(v, x));
        }
    }
    _a.assign(static_cast<std::size_t>(_m) * 64, 0.0f);
    for (int i = 0; i < _m; ++i)
        for (int k = 0; k < 64; ++k) {
            float acc = 0.0f;
            for (int p = 0; p < 64; ++p)
                acc += _phi[i * 64 + p] * basis[p * 64 + k];
            _a[static_cast<std::size_t>(i) * 64 + k] = acc;
        }

    // Step below 1/||A||^2; B is orthonormal so ||A|| = ||Phi|| with
    // sigma_max(Phi) ~ (sqrt(64) + sqrt(m)) / sqrt(m).
    const double smax = (8.0 + std::sqrt(static_cast<double>(_m)))
                        / std::sqrt(static_cast<double>(_m));
    _step = 0.9 / (smax * smax);
    _lambda = 0.05;
}

void
CompressiveSensing::measureBlock(const float *block, std::uint8_t *codes) const
{
    for (int i = 0; i < _m; ++i) {
        float acc = 0.0f;
        for (int p = 0; p < 64; ++p)
            acc += _phi[static_cast<std::size_t>(i) * 64 + p] * block[p];
        // 10-bit measurement quantization (CS needs high resolution).
        const int code = quantizeCode(acc, -4.0f, 4.0f, 1024);
        codes[2 * i] = static_cast<std::uint8_t>(code & 0xFF);
        codes[2 * i + 1] = static_cast<std::uint8_t>(code >> 8);
    }
}

void
CompressiveSensing::reconstructBlock(const std::uint8_t *codes,
                                     float *block) const
{
    float y[64];
    for (int i = 0; i < _m; ++i)
        y[i] = dequantizeCode(codes[2 * i] | codes[2 * i + 1] << 8, -4.0f,
                              4.0f, 1024);

    // FISTA with lambda continuation: start with a strong sparsity
    // prior and relax it, which speeds up the slowly-converging
    // optimization the paper attributes to CS decoders (Sec. 2.2).
    const float *a = _a.data();
    const float step = static_cast<float>(_step);
    float s[64] = {};      // DCT coefficients
    float s_prev[64] = {};
    float z[64] = {};      // momentum point
    float residual[64];
    double t_momentum = 1.0;
    for (int iter = 0; iter < _istaIters; ++iter) {
        const double lambda_iter =
            _lambda * (1.0 + 9.0 * (1.0 - static_cast<double>(iter)
                                              / _istaIters));
        const float thr = static_cast<float>(_step * lambda_iter);
        // residual = y - A z
        for (int i = 0; i < _m; ++i) {
            float acc = 0.0f;
            for (int k = 0; k < 64; ++k)
                acc += a[i * 64 + k] * z[k];
            residual[i] = y[i] - acc;
        }
        // s = soft(z + step * A^T residual).
        for (int k = 0; k < 64; ++k) {
            float grad = 0.0f;
            for (int i = 0; i < _m; ++i)
                grad += a[i * 64 + k] * residual[i];
            const float v = z[k] + step * grad;
            s[k] = v > thr ? v - thr : v < -thr ? v + thr : 0.0f;
        }
        // FISTA momentum update.
        const double t_next =
            0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum));
        const float beta = static_cast<float>(
            (t_momentum - 1.0) / t_next);
        for (int k = 0; k < 64; ++k)
            z[k] = s[k] + beta * (s[k] - s_prev[k]);
        std::copy(s, s + 64, s_prev);
        t_momentum = t_next;
    }

    // Debias: least-squares refit restricted to the recovered support
    // (removes the soft-threshold shrinkage bias).
    bool support[64];
    for (int k = 0; k < 64; ++k)
        support[k] = std::abs(s[k]) > 1e-5f;
    for (int iter = 0; iter < 60; ++iter) {
        for (int i = 0; i < _m; ++i) {
            float acc = 0.0f;
            for (int k = 0; k < 64; ++k)
                acc += a[i * 64 + k] * s[k];
            residual[i] = y[i] - acc;
        }
        for (int k = 0; k < 64; ++k) {
            if (!support[k])
                continue;
            float grad = 0.0f;
            for (int i = 0; i < _m; ++i)
                grad += a[i * 64 + k] * residual[i];
            s[k] += step * grad;
        }
    }

    // x = B s via the inverse DCT.
    _dct.inverse(s, block);
}

WireStream
CompressiveSensing::wireSymbols(const Tensor &batch)
{
    const int n = batch.size(0), c = batch.size(1);
    const int h = batch.size(2), w = batch.size(3);
    LECA_CHECK(h % 8 == 0 && w % 8 == 0, "CS needs 8x8-divisible frames");
    const std::size_t per_image =
        static_cast<std::size_t>(c) * (h / 8) * (w / 8) * 2 * _m;

    WireStream ws;
    ws.symbols.resize(n * per_image);
    forEachImage(n, [&](int i) {
        std::uint8_t *codes = ws.symbols.data() + i * per_image;
        float block[64];
        for (int ch = 0; ch < c; ++ch) {
            const float *plane =
                batch.data() + (static_cast<std::size_t>(i) * c + ch) * h * w;
            for (int by = 0; by < h / 8; ++by)
                for (int bx = 0; bx < w / 8; ++bx, codes += 2 * _m) {
                    forTile8(plane, w, by, bx,
                             [&](float v, int k) { block[k] = v; });
                    measureBlock(block, codes);
                }
        }
    });
    ws.rawBits = 10.0 * static_cast<double>(ws.symbols.size() / 2);
    // Delta across corresponding bytes of consecutive measurements.
    ws.predStride = 2;
    return ws;
}

Tensor
CompressiveSensing::decode(const WireStream &ws,
                           const std::vector<int> &shape)
{
    const int n = shape[0], c = shape[1], h = shape[2], w = shape[3];
    const std::size_t per_image = ws.symbols.size() / n;

    Tensor out(shape);
    forEachImage(n, [&](int i) {
        const std::uint8_t *codes = ws.symbols.data() + i * per_image;
        float recon[64];
        for (int ch = 0; ch < c; ++ch) {
            float *plane =
                out.data() + (static_cast<std::size_t>(i) * c + ch) * h * w;
            for (int by = 0; by < h / 8; ++by)
                for (int bx = 0; bx < w / 8; ++bx, codes += 2 * _m) {
                    reconstructBlock(codes, recon);
                    forTile8(plane, w, by, bx, [&](float &v, int k) {
                        v = std::clamp(recon[k], 0.0f, 1.0f);
                    });
                }
        }
    });
    return out;
}

} // namespace leca
