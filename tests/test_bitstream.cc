/**
 * @file
 * The entropy-coded wire format's contract (DESIGN.md §14): bit I/O
 * and rANS primitives round-trip exactly; byte-stream containers
 * decode equal to their inputs at adversarial lengths and alphabets,
 * with and without delta prediction, under every coder a container
 * may name; entropy coding beats 8 bits per code on skewed codes;
 * encoded bytes are identical across thread counts and every compiled
 * ISA variant, and equal to pinned golden digests from one commit to
 * the next; and EVERY corruption — truncation at each byte boundary,
 * random bit flips, oversized length fields, bad magic/version/kind —
 * raises leca::CheckError, never an out-of-bounds read (this file runs
 * under the ASan CI job).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bitstream/bitio.hh"
#include "bitstream/codec.hh"
#include "bitstream/container.hh"
#include "bitstream/rans.hh"
#include "tensor/isa.hh"
#include "util/check.hh"
#include "util/fnv1a.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace leca {
namespace {

using bitstream::BitReader;
using bitstream::BitWriter;
using bitstream::Coder;
using bitstream::ContainerReader;
using bitstream::ContainerWriter;
using bitstream::Predictor;
using bitstream::RansFreqTable;

/** Restores the ambient thread count after each test. */
class BitstreamTest : public ::testing::Test
{
  protected:
    void SetUp() override { _saved = threadCount(); }
    void TearDown() override { setThreadCount(_saved); }

  private:
    int _saved = 1;
};

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed, int hi = 255)
{
    Rng rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, hi));
    return v;
}

/** A skewed (low-entropy) stream that entropy coding should crush. */
std::vector<std::uint8_t>
skewedBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v) {
        const double u = rng.uniform();
        b = u < 0.70 ? 0 : u < 0.85 ? 1 : u < 0.95 ? 2 : static_cast<std::uint8_t>(rng.uniformInt(3, 15));
    }
    return v;
}

/**
 * @p n symbols from an alphabet of @p alphabet values, skewed toward 0
 * (symbol = alphabet·u³), so long streams favour rANS and short or
 * tiny-alphabet ones favour bit packing.
 */
std::vector<std::uint8_t>
alphabetBytes(std::size_t n, int alphabet, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v) {
        const double u = rng.uniform();
        const int s = static_cast<int>(alphabet * u * u * u);
        b = static_cast<std::uint8_t>(s < alphabet ? s : alphabet - 1);
    }
    return v;
}

/** A smooth image-like stream: rows of @p w codes along a gradient. */
std::vector<std::uint8_t>
gradientBytes(int h, int w, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> v(static_cast<std::size_t>(h) * w);
    for (std::size_t i = 0; i < v.size(); ++i) {
        const int y = static_cast<int>(i) / w, x = static_cast<int>(i) % w;
        v[i] = static_cast<std::uint8_t>((x + 2 * y) / 3
                                         + rng.uniformInt(0, 1));
    }
    return v;
}

/** The one section descriptor of an encoded byte stream. */
bitstream::Section
codesSection(const std::vector<std::uint8_t> &wire)
{
    ContainerReader cr(wire.data(), wire.size());
    EXPECT_EQ(cr.sectionCount(), 1u);
    return cr.section(0);
}

// ---- Bit I/O --------------------------------------------------------

TEST(Bitio, RoundTripMixedWidths)
{
    Rng rng(7);
    std::vector<std::pair<std::uint32_t, int>> items;
    BitWriter bw;
    std::size_t bits_written = 0;
    for (int i = 0; i < 5000; ++i) {
        const int bits = rng.uniformInt(0, 32);
        const std::uint32_t mask =
            bits == 32 ? 0xFFFFFFFFu : ((1u << bits) - 1);
        const std::uint32_t v =
            static_cast<std::uint32_t>(rng.next()) & mask;
        items.emplace_back(v, bits);
        bw.put(v, bits);
        bits_written += static_cast<std::size_t>(bits);
    }
    const std::vector<std::uint8_t> bytes = bw.finish();
    EXPECT_EQ(bytes.size(), (bits_written + 7) / 8);
    BitReader br(bytes.data(), bytes.size());
    for (const auto &[v, bits] : items)
        ASSERT_EQ(br.get(bits), v);
}

TEST(Bitio, ReaderThrowsPastEnd)
{
    BitWriter bw;
    bw.put(0x2A, 6);
    const std::vector<std::uint8_t> bytes = bw.finish();
    BitReader br(bytes.data(), bytes.size());
    EXPECT_EQ(br.get(6), 0x2Au);
    EXPECT_EQ(br.get(2), 0u);  // the zero padding of the final byte
    EXPECT_THROW(br.get(1), CheckError);
    BitReader empty(nullptr, 0);
    EXPECT_EQ(empty.get(0), 0u);
    EXPECT_THROW(empty.get(1), CheckError);
}

// ---- rANS core ------------------------------------------------------

TEST(Rans, RoundTripSkewedAndUniform)
{
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        for (const auto &data :
             {skewedBytes(10000, seed), randomBytes(10000, seed),
              std::vector<std::uint8_t>(4096, 0x5A),
              randomBytes(1, seed), randomBytes(0, seed)}) {
            if (data.empty())
                continue;  // empty streams never reach the rANS coder
            std::array<std::uint64_t, 256> counts{};
            for (std::uint8_t b : data)
                ++counts[b];
            const RansFreqTable table =
                bitstream::normalizeFreqs(counts, data.size());
            std::vector<std::uint8_t> coded;
            bitstream::appendFreqTable(table, coded);
            bitstream::ransEncode(data.data(), data.size(), table, coded);
            RansFreqTable parsed;
            const std::size_t used = bitstream::parseFreqTable(
                coded.data(), coded.size(), parsed);
            EXPECT_EQ(parsed.freq, table.freq);
            std::vector<std::uint8_t> decoded(data.size());
            bitstream::ransDecode(coded.data() + used, coded.size() - used,
                                  parsed, decoded.data(), decoded.size());
            ASSERT_EQ(decoded, data);
        }
    }
}

TEST(Rans, SkewedStreamCodesNearEntropy)
{
    const std::vector<std::uint8_t> data = skewedBytes(100000, 11);
    std::array<std::uint64_t, 256> counts{};
    for (std::uint8_t b : data)
        ++counts[b];
    const RansFreqTable table =
        bitstream::normalizeFreqs(counts, data.size());
    std::vector<std::uint8_t> coded;
    bitstream::ransEncode(data.data(), data.size(), table, coded);
    const double achieved_bps = 8.0 * coded.size() / data.size();
    const double entropy =
        bitstream::shannonEntropyBits(data.data(), data.size());
    EXPECT_LT(entropy, 2.5);  // the stream really is skewed
    EXPECT_LT(achieved_bps, entropy + 0.1);  // within 0.1 bit of optimal
    EXPECT_GE(achieved_bps, entropy - 1e-9);  // and no magic
}

TEST(Rans, NormalizeFreqsIsExactAndDeterministic)
{
    Rng rng(23);
    for (int trial = 0; trial < 50; ++trial) {
        std::array<std::uint64_t, 256> counts{};
        std::uint64_t total = 0;
        const int nsym = rng.uniformInt(1, 256);
        for (int i = 0; i < nsym; ++i) {
            const int s = rng.uniformInt(0, 255);
            const std::uint64_t c =
                static_cast<std::uint64_t>(rng.uniformInt(1, 100000));
            counts[s] += c;
            total += c;
        }
        const RansFreqTable a = bitstream::normalizeFreqs(counts, total);
        const RansFreqTable b = bitstream::normalizeFreqs(counts, total);
        EXPECT_EQ(a.freq, b.freq);
        std::uint32_t sum = 0;
        for (int s = 0; s < 256; ++s) {
            sum += a.freq[s];
            if (counts[s] > 0)
                EXPECT_GE(a.freq[s], 1u);
            else
                EXPECT_EQ(a.freq[s], 0u);
        }
        EXPECT_EQ(sum, bitstream::kProbScale);
    }
}

// ---- Container framing ----------------------------------------------

std::vector<std::uint8_t>
sampleContainer()
{
    ContainerWriter cw(bitstream::kKindByteStream);
    const std::vector<std::uint8_t> a = randomBytes(300, 5);
    const std::vector<std::uint8_t> b = randomBytes(77, 6);
    cw.addSection(1, Coder::Raw, Predictor::None, 0, 0, a.size(), a);
    cw.addSection(2, Coder::Raw, Predictor::None, 0, 0, b.size(), b);
    return cw.finish();
}

TEST(Container, RoundTripAndLookup)
{
    const std::vector<std::uint8_t> bytes = sampleContainer();
    ContainerReader cr(bytes.data(), bytes.size());
    EXPECT_EQ(cr.kind(), bitstream::kKindByteStream);
    ASSERT_EQ(cr.sectionCount(), 2u);
    EXPECT_EQ(cr.section(0).id, 1u);
    EXPECT_EQ(cr.section(1).rawLen, 77u);
    EXPECT_NE(cr.findSection(2), nullptr);
    EXPECT_EQ(cr.findSection(3), nullptr);
    const std::vector<std::uint8_t> a = randomBytes(300, 5);
    EXPECT_EQ(std::memcmp(cr.payload(0), a.data(), a.size()), 0);
}

TEST(Container, TruncationAtEveryBoundaryThrows)
{
    const std::vector<std::uint8_t> bytes = sampleContainer();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_THROW(ContainerReader(bytes.data(), len), CheckError)
            << "prefix of " << len << " bytes parsed cleanly";
    }
    ContainerReader ok(bytes.data(), bytes.size());
    EXPECT_EQ(ok.sectionCount(), 2u);
}

/** Recompute the header checksum after a forged table field, so the
 *  reader's bounds, not the checksum, have to reject the forgery. */
void
resealHeader(std::vector<std::uint8_t> &bytes)
{
    std::uint32_t nsections = 0;
    std::memcpy(&nsections, bytes.data() + 12, sizeof(nsections));
    const std::size_t table_end = 16 + std::size_t{nsections} * 40;
    Fnv1a hash;
    hash.update(bytes.data() + 4, table_end - 4);
    const std::uint64_t digest = hash.digest();
    std::memcpy(bytes.data() + table_end, &digest, sizeof(digest));
}

/**
 * Structural mutants of the container @p good: every truncation, a
 * one-byte insert and a one-byte delete at 64 seeded offsets each, and
 * every section's rawLen and encLen forged to 0, 1, its value ±1 and
 * UINT64_MAX behind a resealed header. @p parse must throw CheckError
 * on each: never another exception, never a clean parse.
 */
template <typename Parse>
void
expectStructuralMutantsThrow(const std::vector<std::uint8_t> &good,
                             Parse parse)
{
    int failures = 0;
    const auto expectThrows = [&](const std::vector<std::uint8_t> &bad,
                                  const std::string &what) {
        try {
            parse(bad);
            if (++failures <= 3)
                ADD_FAILURE() << what << " parsed cleanly";
        } catch (const CheckError &) {
        } catch (const std::exception &e) {
            if (++failures <= 3)
                ADD_FAILURE() << what << " escaped as " << e.what();
        }
    };
    for (std::size_t len = 0; len < good.size(); ++len)
        expectThrows({good.begin(), good.begin() + len},
                     "truncation to " + std::to_string(len) + " bytes");
    Rng rng(29);
    for (int trial = 0; trial < 64; ++trial) {
        const auto at = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(good.size()) - 1));
        std::vector<std::uint8_t> bad = good;
        bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<std::uint8_t>(rng.uniformInt(0, 255)));
        expectThrows(bad, "insert at byte " + std::to_string(at));
        bad = good;
        bad.erase(bad.begin() + static_cast<std::ptrdiff_t>(at));
        expectThrows(bad, "delete of byte " + std::to_string(at));
    }
    std::uint32_t nsections = 0;
    std::memcpy(&nsections, good.data() + 12, sizeof(nsections));
    for (std::size_t i = 0; i < nsections; ++i)
        for (const std::size_t field : {16, 24}) { // rawLen, encLen
            const std::size_t off = 16 + i * 40 + field;
            std::uint64_t value = 0;
            std::memcpy(&value, good.data() + off, sizeof(value));
            for (const std::uint64_t forged :
                 {std::uint64_t{0}, std::uint64_t{1}, value - 1, value + 1,
                  ~std::uint64_t{0}}) {
                if (forged == value)
                    continue;
                std::vector<std::uint8_t> bad = good;
                std::memcpy(bad.data() + off, &forged, sizeof(forged));
                resealHeader(bad);
                expectThrows(bad, "section " + std::to_string(i)
                                      + " length at byte "
                                      + std::to_string(off) + " forged to "
                                      + std::to_string(forged));
            }
        }
    EXPECT_EQ(failures, 0);
}

TEST(Container, EveryBitFlipThrows)
{
    // A corrupt byte ANYWHERE must be caught: header fields by the
    // framing checks, table bytes by the header checksum, payload
    // bytes by the per-section checksums.
    std::vector<std::uint8_t> bytes = sampleContainer();
    Rng rng(17);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t byte =
            static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(bytes.size()) - 1));
        const int bit = rng.uniformInt(0, 7);
        bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_THROW(ContainerReader(bytes.data(), bytes.size()),
                     CheckError)
            << "flip of bit " << bit << " in byte " << byte << " undetected";
        bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }

    // Splices and forged lengths: through the reader alone for this raw
    // sample, and through the whole byte-stream decoder over packed
    // (widths 8 and 4) and rANS sections (the encoder never codes Raw).
    expectStructuralMutantsThrow(bytes, [](const std::vector<std::uint8_t> &b) {
        ContainerReader(b.data(), b.size());
    });
    std::set<Coder> coders;
    for (const std::vector<std::uint8_t> &data :
         {randomBytes(300, 5), randomBytes(600, 7, 15),
          skewedBytes(2000, 9)}) {
        const std::vector<std::uint8_t> stream =
            bitstream::encodeByteStream(data.data(), data.size(), 0);
        coders.insert(ContainerReader(stream.data(), stream.size())
                          .section(0)
                          .coder);
        expectStructuralMutantsThrow(
            stream, [](const std::vector<std::uint8_t> &b) {
                bitstream::decodeByteStream(b.data(), b.size());
            });
    }
    EXPECT_EQ(coders, (std::set<Coder>{Coder::Packed, Coder::Rans}));
}

TEST(Container, OversizedLengthFieldsThrow)
{
    // Forge a section table whose encLen is absurd; the reader must
    // reject it on the length bound even with a recomputed header
    // checksum (i.e. never attempt the giant allocation or read).
    std::vector<std::uint8_t> bytes = sampleContainer();
    const std::size_t enc_len_off = 16 + 24;  // header + offsetof(encLen)
    const std::uint64_t huge = ~std::uint64_t{0} / 2;
    std::memcpy(bytes.data() + enc_len_off, &huge, sizeof(huge));
    Fnv1a hash;
    const std::size_t table_end = 16 + 2 * 40;
    hash.update(bytes.data() + 4, table_end - 4);
    const std::uint64_t digest = hash.digest();
    std::memcpy(bytes.data() + table_end, &digest, sizeof(digest));
    EXPECT_THROW(ContainerReader(bytes.data(), bytes.size()), CheckError);
}

TEST(Container, BadMagicVersionAndSectionCountThrow)
{
    std::vector<std::uint8_t> bytes = sampleContainer();
    {
        std::vector<std::uint8_t> bad = bytes;
        bad[0] ^= 0xFF;
        EXPECT_THROW(ContainerReader(bad.data(), bad.size()), CheckError);
    }
    {
        std::vector<std::uint8_t> bad = bytes;
        bad[4] = 99;  // unsupported version
        EXPECT_THROW(ContainerReader(bad.data(), bad.size()), CheckError);
    }
    {
        std::vector<std::uint8_t> bad = bytes;
        const std::uint32_t many = 1u << 20;  // over kMaxSections
        std::memcpy(bad.data() + 12, &many, sizeof(many));
        EXPECT_THROW(ContainerReader(bad.data(), bad.size()), CheckError);
    }
    EXPECT_THROW(ContainerReader(nullptr, 64), CheckError);
}

// ---- Codec round-trips ----------------------------------------------

TEST(Codec, ByteStreamRoundTripAdversarialLengths)
{
    // Empty, single, around one 32-byte block, odd, and 64 KiB; one
    // symbol (packs to width 0) up to all 256; stride 0 tries no
    // predictor, stride 7 also tries delta.
    const std::size_t lengths[] = {0, 1, 31, 32, 33, 257, 64 * 1024};
    const int alphabets[] = {1, 4, 16, 256};
    std::set<Coder> chosen;
    int seed = 100;
    for (const std::size_t n : lengths)
        for (const int alphabet : alphabets)
            for (const std::uint64_t stride : {0ULL, 7ULL}) {
                const std::vector<std::uint8_t> data =
                    alphabetBytes(n, alphabet, seed++);
                const std::vector<std::uint8_t> wire =
                    bitstream::encodeByteStream(data.data(), n, stride);
                chosen.insert(codesSection(wire).coder);
                EXPECT_EQ(bitstream::decodeByteStream(wire.data(),
                                                      wire.size()),
                          data)
                    << "n=" << n << " alphabet=" << alphabet
                    << " stride=" << stride;
            }
    EXPECT_TRUE(chosen.count(Coder::Rans));
    EXPECT_TRUE(chosen.count(Coder::Packed));
    EXPECT_FALSE(chosen.count(Coder::Raw));  // packing never loses to raw

    // The encoder never emits Raw, but format v1 defines it: a
    // hand-built Raw section, with and without delta, still decodes.
    const std::vector<std::uint8_t> data = alphabetBytes(300, 256, 9);
    std::vector<std::uint8_t> residual(data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        residual[i] = static_cast<std::uint8_t>(
            data[i] - (i < 5 ? 0 : data[i - 5]));
    for (const bool delta : {false, true}) {
        ContainerWriter cw(bitstream::kKindByteStream);
        cw.addSection(2, Coder::Raw,
                      delta ? Predictor::Delta : Predictor::None, 0,
                      delta ? 5 : 0, data.size(), delta ? residual : data);
        const std::vector<std::uint8_t> wire = cw.finish();
        EXPECT_EQ(bitstream::decodeByteStream(wire.data(), wire.size()),
                  data)
            << "delta=" << delta;
    }
}

TEST(Codec, EmptyTensorRoundTrips)
{
    // A zero-pixel code tensor is a zero-length stream, with or
    // without a predictor stride.
    for (const std::uint64_t stride : {0ULL, 16ULL}) {
        const std::vector<std::uint8_t> wire =
            bitstream::encodeByteStream(nullptr, 0, stride);
        EXPECT_TRUE(bitstream::decodeByteStream(wire.data(), wire.size())
                        .empty());
        const bitstream::Section s = codesSection(wire);
        EXPECT_EQ(s.rawLen, 0u);
        EXPECT_EQ(s.encLen, 0u);
    }
}

TEST(Codec, ByteStreamRoundTripAndDeltaHelps)
{
    // A smooth ramp: delta prediction should collapse it to near-zero
    // residuals and beat the un-predicted encoding.
    std::vector<std::uint8_t> ramp(8192);
    for (std::size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = static_cast<std::uint8_t>((i / 32) & 0xFF);
    const std::vector<std::uint8_t> wire =
        bitstream::encodeByteStream(ramp.data(), ramp.size(), 1);
    EXPECT_EQ(bitstream::decodeByteStream(wire.data(), wire.size()), ramp);
    EXPECT_EQ(codesSection(wire).predictor, Predictor::Delta);

    // Stride 0 tries no predictor at all.
    const std::vector<std::uint8_t> wire_np =
        bitstream::encodeByteStream(ramp.data(), ramp.size(), 0);
    EXPECT_EQ(codesSection(wire_np).predictor, Predictor::None);
    EXPECT_LT(wire.size(), wire_np.size());
    EXPECT_EQ(bitstream::decodeByteStream(wire_np.data(), wire_np.size()),
              ramp);
}

TEST(Codec, EntropyCodingBeatsRawOnQuantizedCodes)
{
    // Trained (and especially pruned) int8 weight codes are far from
    // uniform over the 256 byte values — model them as 60% exact zeros
    // plus a bell-shaped remainder. Negative codes set the top bit, so
    // packing cannot help; only entropy coding gets under 8 bits/code.
    Rng rng(42);
    std::vector<std::uint8_t> codes(64 * 256);
    for (auto &b : codes) {
        if (rng.uniform() < 0.6) {
            b = 0;
            continue;
        }
        double s = -2.0;  // Irwin-Hall(4) - 2: approximately normal
        for (int k = 0; k < 4; ++k)
            s += rng.uniform();
        b = static_cast<std::uint8_t>(
            static_cast<std::int8_t>(std::lround(s * 63.5)));
    }
    const std::vector<std::uint8_t> wire =
        bitstream::encodeByteStream(codes.data(), codes.size(), 0);
    EXPECT_EQ(codesSection(wire).coder, Coder::Rans);
    EXPECT_LT(wire.size(), codes.size());
    EXPECT_EQ(bitstream::decodeByteStream(wire.data(), wire.size()), codes);
}

TEST(Codec, CorruptCodecPayloadsThrow)
{
    const std::vector<std::uint8_t> data = skewedBytes(4096, 77);
    std::vector<std::uint8_t> wire =
        bitstream::encodeByteStream(data.data(), data.size(), 64);
    // A well-formed container of the wrong kind, and one missing the
    // codes section.
    {
        ContainerWriter cw(1);
        cw.addSection(2, Coder::Raw, Predictor::None, 0, 0, data.size(),
                      data);
        const std::vector<std::uint8_t> other = cw.finish();
        EXPECT_THROW(bitstream::decodeByteStream(other.data(), other.size()),
                     CheckError);
    }
    {
        ContainerWriter cw(bitstream::kKindByteStream);
        cw.addSection(1, Coder::Raw, Predictor::None, 0, 0, data.size(),
                      data);
        const std::vector<std::uint8_t> other = cw.finish();
        EXPECT_THROW(bitstream::decodeByteStream(other.data(), other.size()),
                     CheckError);
    }
    // Truncation at every boundary of the full codec stream.
    for (std::size_t len = 0; len < wire.size(); len += 7) {
        EXPECT_THROW(bitstream::decodeByteStream(wire.data(), len),
                     CheckError);
    }
    // Bit flips anywhere in the stream.
    Rng rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t byte = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(wire.size()) - 1));
        const int bit = rng.uniformInt(0, 7);
        wire[byte] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_THROW(bitstream::decodeByteStream(wire.data(), wire.size()),
                     CheckError);
        wire[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
    // ...and the pristine stream still decodes after all that.
    EXPECT_EQ(bitstream::decodeByteStream(wire.data(), wire.size()), data);
}

// ---- Determinism ----------------------------------------------------

TEST(Codec, WireBytesMatchGoldenDigests)
{
    // Pins the encoded bytes from one commit to the next: a change to
    // candidate order, tie-breaking, section ids or any coder shows up
    // here as a length or digest mismatch.
    struct Golden
    {
        const char *name;
        std::vector<std::uint8_t> data;
        std::uint64_t stride;
        Coder coder;
        Predictor predictor;
        std::size_t size;
        std::uint64_t digest;
    };
    const Golden cases[] = {
        {"delta+rans", gradientBytes(48, 64, 31), 64, Coder::Rans,
         Predictor::Delta, 898, 0xb0fef35ba01a7a08ULL},
        {"rans", skewedBytes(5000, 32), 50, Coder::Rans, Predictor::None,
         1064, 0x1bf19746c25f73ccULL},
        {"packed", randomBytes(1000, 33, 15), 0, Coder::Packed,
         Predictor::None, 564, 0x54abfb11ca7fe4c7ULL},
        {"packed8", randomBytes(777, 34), 0, Coder::Packed,
         Predictor::None, 841, 0x61658d29c8aac24dULL},
        {"empty", {}, 0, Coder::Packed, Predictor::None, 64,
         0xbf7b10f43e25ba9bULL},
    };
    for (const Golden &g : cases) {
        const std::vector<std::uint8_t> wire = bitstream::encodeByteStream(
            g.data.data(), g.data.size(), g.stride);
        Fnv1a hash;
        hash.update(wire.data(), wire.size());
        const bitstream::Section s = codesSection(wire);
        EXPECT_EQ(s.coder, g.coder) << g.name;
        EXPECT_EQ(s.predictor, g.predictor) << g.name;
        EXPECT_EQ(wire.size(), g.size) << g.name;
        EXPECT_EQ(hash.digest(), g.digest)
            << g.name << ": 0x" << std::hex << hash.digest();
    }
}

TEST_F(BitstreamTest, EncodedBytesInvariantAcrossThreadsAndIsa)
{
    struct Stream
    {
        std::vector<std::uint8_t> data;
        std::uint64_t stride;
    };
    const Stream streams[] = {
        {gradientBytes(24, 40, 55), 40},
        {skewedBytes(3000, 56), 24},
        {randomBytes(2000, 57), 0},
    };
    std::vector<std::vector<std::uint8_t>> refs;
    for (const Stream &s : streams)
        refs.push_back(bitstream::encodeByteStream(s.data.data(),
                                                   s.data.size(), s.stride));
    for (const int threads : {1, 4, 8}) {
        setThreadCount(threads);
        for (std::size_t i = 0; i < refs.size(); ++i) {
            const Stream &s = streams[i];
            EXPECT_EQ(bitstream::encodeByteStream(s.data.data(),
                                                  s.data.size(), s.stride),
                      refs[i])
                << "threads=" << threads << " stream " << i;
            for (const KernelSet *set : compiledKernelSets()) {
                if (!hostSupportsKernelSet(*set))
                    continue;
                ScopedKernelOverride force(*set);
                EXPECT_EQ(bitstream::encodeByteStream(
                              s.data.data(), s.data.size(), s.stride),
                          refs[i])
                    << "threads=" << threads << " isa=" << set->name
                    << " stream " << i;
            }
        }
    }
}

} // namespace
} // namespace leca
