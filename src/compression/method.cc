#include "compression/method.hh"

#include <utility>

namespace leca {

WireStream
CompressionMethod::codeWire(const Tensor &x, float lo, float hi,
                            QBits qbits)
{
    LECA_CHECK(qbits.levels() <= 256, "a code wire sends one byte a code");
    const std::size_t per_image = x.numel() / x.size(0);
    WireStream ws;
    ws.symbols.resize(x.numel());
    forEachImage(x.size(0), [&](int i) {
        const std::size_t off = static_cast<std::size_t>(i) * per_image;
        quantizeCodes(x.data() + off, per_image, lo, hi, qbits.levels(),
                      ws.symbols.data() + off);
    });
    ws.rawBits = qbits.bits() * static_cast<double>(x.numel());
    ws.predStride = static_cast<std::uint64_t>(x.size(x.dim() - 1));
    return ws;
}

std::int64_t
CompressionMethod::encodeImages(
    int n, std::vector<std::uint8_t> &symbols,
    FunctionRef<std::int64_t(int, std::vector<std::uint8_t> &)> encode_image)
{
    // Threads share no vector; integer tallies sum alike in any order.
    std::vector<std::vector<std::uint8_t>> streams(n);
    std::vector<std::int64_t> tallies(n);
    forEachImage(n, [&](int i) {
        std::vector<std::uint8_t> out;
        tallies[i] = encode_image(i, out);
        streams[i] = std::move(out);
    });
    std::int64_t total = 0;
    for (int i = 0; i < n; ++i) {
        symbols.insert(symbols.end(), streams[i].begin(), streams[i].end());
        total += tallies[i];
    }
    return total;
}

Tensor
CompressionMethod::codeValues(const WireStream &ws,
                              const std::vector<int> &shape, float lo,
                              float hi, QBits qbits)
{
    Tensor x(shape);
    LECA_CHECK(ws.symbols.size() == x.numel(), "code wire of ",
               ws.symbols.size(), " symbols for ", x.numel(), " values");
    float value[256]; // each code's grid value, computed once
    for (int code = 0; code < qbits.levels(); ++code)
        value[code] = dequantizeCode(code, lo, hi, qbits.levels());
    const std::size_t per_image = x.numel() / x.size(0);
    forEachImage(x.size(0), [&](int i) {
        const std::size_t off = static_cast<std::size_t>(i) * per_image;
        for (std::size_t k = off; k < off + per_image; ++k)
            x[k] = value[ws.symbols[k]];
    });
    return x;
}

} // namespace leca
