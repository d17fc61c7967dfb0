#include "bitstream/rans.hh"

#include <algorithm>
#include <cmath>

#include "util/check.hh"

namespace leca::bitstream {

namespace {

/** Largest-frequency symbol, lowest index winning ties. */
int
largestSymbol(const std::array<std::uint16_t, 256> &freq, bool above_one)
{
    int best = -1;
    std::uint16_t best_f = above_one ? 1 : 0;
    for (int s = 0; s < 256; ++s) {
        if (freq[s] > best_f) {
            best_f = freq[s];
            best = s;
        }
    }
    return best;
}

} // namespace

RansFreqTable
normalizeFreqs(const std::array<std::uint64_t, 256> &counts,
               std::uint64_t total)
{
    LECA_CHECK(total > 0, "normalizeFreqs over an empty histogram");
    RansFreqTable table;
    std::uint64_t sum = 0;
    for (int s = 0; s < 256; ++s) {
        if (counts[s] == 0)
            continue;
        std::uint64_t f = (counts[s] * kProbScale + total / 2) / total;
        if (f == 0)
            f = 1;
        table.freq[s] = static_cast<std::uint16_t>(f);
        sum += f;
    }
    // Repay rounding drift from the heaviest symbols: they lose the
    // least coding efficiency per slot, and picking the lowest index
    // among ties keeps the table a pure function of the histogram.
    while (sum > kProbScale) {
        const int s = largestSymbol(table.freq, /*above_one=*/true);
        LECA_CHECK(s >= 0, "normalizeFreqs cannot shrink table further");
        const std::uint64_t dec =
            std::min<std::uint64_t>(sum - kProbScale, table.freq[s] - 1u);
        table.freq[s] = static_cast<std::uint16_t>(table.freq[s] - dec);
        sum -= dec;
    }
    if (sum < kProbScale) {
        const int s = largestSymbol(table.freq, /*above_one=*/false);
        LECA_CHECK(s >= 0, "normalizeFreqs over an empty histogram");
        table.freq[s] =
            static_cast<std::uint16_t>(table.freq[s] + (kProbScale - sum));
    }
    std::uint32_t cum = 0;
    for (int s = 0; s < 256; ++s) {
        table.cum[s] = static_cast<std::uint16_t>(cum);
        cum += table.freq[s];
    }
    return table;
}

void
appendFreqTable(const RansFreqTable &table, std::vector<std::uint8_t> &out)
{
    int nsym = 0;
    for (int s = 0; s < 256; ++s)
        nsym += table.freq[s] != 0;
    out.push_back(static_cast<std::uint8_t>(nsym & 0xFF));
    out.push_back(static_cast<std::uint8_t>((nsym >> 8) & 0xFF));
    for (int s = 0; s < 256; ++s) {
        if (table.freq[s] == 0)
            continue;
        out.push_back(static_cast<std::uint8_t>(s));
        out.push_back(static_cast<std::uint8_t>(table.freq[s] & 0xFF));
        out.push_back(static_cast<std::uint8_t>(table.freq[s] >> 8));
    }
}

std::size_t
parseFreqTable(const std::uint8_t *data, std::size_t size,
               RansFreqTable &table)
{
    LECA_CHECK(size >= 2, "corrupt bitstream: rANS table header truncated");
    const std::uint32_t nsym =
        static_cast<std::uint32_t>(data[0])
        | (static_cast<std::uint32_t>(data[1]) << 8);
    LECA_CHECK(nsym >= 1 && nsym <= 256,
               "corrupt bitstream: rANS table claims ", nsym, " symbols");
    const std::size_t need = 2 + static_cast<std::size_t>(nsym) * 3;
    LECA_CHECK(size >= need,
               "corrupt bitstream: rANS table truncated (need ", need,
               " bytes, have ", size, ")");
    table = RansFreqTable{};
    std::uint32_t sum = 0;
    int prev = -1;
    for (std::uint32_t i = 0; i < nsym; ++i) {
        const std::uint8_t *e = data + 2 + i * 3;
        const int sym = e[0];
        const std::uint32_t f = static_cast<std::uint32_t>(e[1])
                                | (static_cast<std::uint32_t>(e[2]) << 8);
        LECA_CHECK(sym > prev,
                   "corrupt bitstream: rANS table symbols not ascending");
        LECA_CHECK(f >= 1 && f <= kProbScale,
                   "corrupt bitstream: rANS frequency ", f,
                   " out of range for symbol ", sym);
        table.freq[sym] = static_cast<std::uint16_t>(f);
        sum += f;
        prev = sym;
    }
    LECA_CHECK(sum == kProbScale, "corrupt bitstream: rANS frequencies sum ",
               sum, ", expected ", kProbScale);
    std::uint32_t cum = 0;
    for (int s = 0; s < 256; ++s) {
        table.cum[s] = static_cast<std::uint16_t>(cum);
        cum += table.freq[s];
    }
    return need;
}

void
ransEncode(const std::uint8_t *data, std::size_t n,
           const RansFreqTable &table, std::vector<std::uint8_t> &out)
{
    const std::size_t base = out.size();
    std::uint32_t x[2] = {kRansLowerBound, kRansLowerBound};
    // Walk the symbols backwards; the buffer is reversed at the end so
    // the decoder consumes them forwards. Symbol i always uses state
    // i & 1 on both sides.
    for (std::size_t i = n; i-- > 0;) {
        const std::uint8_t s = data[i];
        const std::uint32_t f = table.freq[s];
        LECA_CHECK(f > 0, "ransEncode symbol ", int(s),
                   " has zero frequency");
        std::uint32_t &r = x[i & 1];
        const std::uint32_t x_max =
            ((kRansLowerBound >> kProbBits) << 8) * f;
        while (r >= x_max) {
            out.push_back(static_cast<std::uint8_t>(r & 0xFF));
            r >>= 8;
        }
        r = ((r / f) << kProbBits) + (r % f) + table.cum[s];
    }
    // Flush state 1 then state 0, each high byte first, so after the
    // reversal the stream opens with state 0 as 4 little-endian bytes.
    for (int k = 1; k >= 0; --k) {
        out.push_back(static_cast<std::uint8_t>(x[k] >> 24));
        out.push_back(static_cast<std::uint8_t>(x[k] >> 16));
        out.push_back(static_cast<std::uint8_t>(x[k] >> 8));
        out.push_back(static_cast<std::uint8_t>(x[k] & 0xFF));
    }
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
}

void
ransDecode(const std::uint8_t *data, std::size_t size,
           const RansFreqTable &table, std::uint8_t *out, std::size_t n)
{
    LECA_CHECK(size >= 8,
               "corrupt bitstream: rANS payload too short for state init (",
               size, " bytes)");
    // slot -> symbol lookup; the table was validated to sum to 4096.
    std::array<std::uint8_t, kProbScale> slot2sym;
    for (int s = 0; s < 256; ++s)
        std::fill_n(slot2sym.begin() + table.cum[s], table.freq[s],
                    static_cast<std::uint8_t>(s));
    std::size_t pos = 0;
    std::uint32_t x[2];
    for (int k = 0; k < 2; ++k) {
        x[k] = (static_cast<std::uint32_t>(data[pos]) << 0)
               | (static_cast<std::uint32_t>(data[pos + 1]) << 8)
               | (static_cast<std::uint32_t>(data[pos + 2]) << 16)
               | (static_cast<std::uint32_t>(data[pos + 3]) << 24);
        pos += 4;
    }
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t &r = x[i & 1];
        const std::uint32_t slot = r & (kProbScale - 1);
        const std::uint8_t s = slot2sym[slot];
        out[i] = s;
        r = table.freq[s] * (r >> kProbBits) + slot - table.cum[s];
        while (r < kRansLowerBound) {
            LECA_CHECK(pos < size,
                       "corrupt bitstream: rANS renormalization past the "
                       "end (byte ",
                       pos, " of ", size, ")");
            r = (r << 8) | data[pos++];
        }
    }
    // A clean stream parks both states back at the lower bound and
    // consumes every byte — any residue means the payload was tampered
    // with in a way the per-section checksum should have caught.
    LECA_CHECK(x[0] == kRansLowerBound && x[1] == kRansLowerBound,
               "corrupt bitstream: rANS final state mismatch");
    LECA_CHECK(pos == size, "corrupt bitstream: rANS payload has ",
               size - pos, " trailing bytes");
}

double
shannonEntropyBits(const std::uint8_t *data, std::size_t n)
{
    if (n == 0)
        return 0.0;
    std::array<std::uint64_t, 256> counts{};
    for (std::size_t i = 0; i < n; ++i)
        ++counts[data[i]];
    double bits = 0.0;
    for (int s = 0; s < 256; ++s) {
        if (counts[s] == 0)
            continue;
        const double p = static_cast<double>(counts[s])
                         / static_cast<double>(n);
        bits -= p * std::log2(p);
    }
    return bits;
}

} // namespace leca::bitstream
