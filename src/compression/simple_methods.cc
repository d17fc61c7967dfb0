#include "simple_methods.hh"

#include "tensor/ops.hh"
#include "util/check.hh"

namespace leca {

WireStream
SpatialDownsample::wireSymbols(const Tensor &batch)
{
    const int n = batch.size(0), c = batch.size(1);
    const int h = batch.size(2), w = batch.size(3);
    const int oh = h / _kh, ow = w / _kw;
    LECA_CHECK(oh > 0 && ow > 0, "SD kernel larger than image");

    Tensor pooled({n, c, oh, ow});
    const float inv = 1.0f / static_cast<float>(_kh * _kw);
    forEachImage(n, [&](int i) {
        float *dst = pooled.data() + static_cast<std::size_t>(i) * c * oh * ow;
        for (int ch = 0; ch < c; ++ch) {
            const float *src =
                batch.data() + (static_cast<std::size_t>(i) * c + ch) * h * w;
            for (int oy = 0; oy < oh; ++oy, src += _kh * w)
                for (int ox = 0; ox < ow; ++ox) {
                    float acc = 0.0f;
                    for (int ky = 0; ky < _kh; ++ky)
                        for (int kx = 0; kx < _kw; ++kx)
                            acc += src[ky * w + ox * _kw + kx];
                    *dst++ = acc * inv;
                }
        }
    });
    return codeWire(pooled, 0.0f, 1.0f, QBits(8.0));
}

Tensor
SpatialDownsample::decode(const WireStream &ws,
                          const std::vector<int> &shape)
{
    const Tensor pooled =
        codeValues(ws, {shape[0], shape[1], shape[2] / _kh, shape[3] / _kw},
                   0.0f, 1.0f, QBits(8.0));
    return bilinearResize(pooled, shape[2], shape[3]);
}

WireStream
LowResQuantizer::wireSymbols(const Tensor &batch)
{
    return codeWire(batch, 0.0f, 1.0f, _qbits);
}

Tensor
LowResQuantizer::decode(const WireStream &ws, const std::vector<int> &shape)
{
    return codeValues(ws, shape, 0.0f, 1.0f, _qbits);
}

} // namespace leca
