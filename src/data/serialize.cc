#include "serialize.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "bitstream/container.hh"
#include "nn/layer.hh"
#include "tensor/quant.hh"
#include "util/check.hh"
#include "util/logging.hh"

namespace leca {

namespace {

using bitstream::Coder;
using bitstream::ContainerReader;
using bitstream::kKindQuantState;
using bitstream::Predictor;

/** First words of the retired pre-container formats: 'LeCA' v2 and the
 *  unversioned one before it. Such files are stale, not corrupt. */
constexpr std::uint32_t kRetiredMagic = 0x4C654341; // "LeCA"
constexpr std::uint32_t kRetiredUnversionedMagic = kRetiredMagic + 1;

/** Section ids, equal to their index in the file; the quantized kind
 *  adds the last three. */
enum SectionId : std::uint32_t {
    kSizes,      //!< u64 numel per fp32 tensor
    kValues,     //!< the fp32 tensors, concatenated
    kQuantTable, //!< kEntryWords u64 per quantized tensor
    kScales,     //!< fp32 block scales, concatenated
    kCodes,      //!< int8 codes, concatenated
};

/** A quantized-tensor table entry: ndim, kMaxRank dims (zero past
 *  ndim), rows, cols. A not-yet-converted tensor is all zeros. */
constexpr std::size_t kMaxRank = 4;
constexpr std::size_t kEntryWords = kMaxRank + 3;

/** Params then state: the fp32 tensors a checkpoint holds, in order. */
// leca-analyze: cold — checkpoint setup
std::vector<Tensor *>
tensorsOf(Layer &layer)
{
    std::vector<Tensor *> tensors;
    for (Param *p : layer.params())
        tensors.push_back(&p->value);
    for (Tensor *t : layer.state())
        tensors.push_back(t);
    return tensors;
}

/** Append @p count elements at @p first to @p out as raw bytes. */
template <typename T>
void
appendBytes(std::vector<std::uint8_t> &out, const T *first, std::size_t count)
{
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(first);
    out.insert(out.end(), bytes, bytes + count * sizeof(T));
}

/** Warn that @p path was not loaded and return false (callers retrain). */
template <typename... Args>
bool
refuse(const std::string &path, Args &&...why)
{
    warn("checkpoint ", path, " ", std::forward<Args>(why)...,
         "; not loaded");
    return false;
}

/** Parse @p bytes as a container; a CheckError names @p path. */
ContainerReader
readContainer(const std::vector<std::uint8_t> &bytes, const std::string &path)
{
    try {
        return ContainerReader(bytes.data(), bytes.size());
    } catch (const CheckError &e) {
        throw CheckError(e.condition(), e.file(), e.line(),
                         "checkpoint " + path + ": " + e.message());
    }
}

/** The u64 words of section @p id. */
std::vector<std::uint64_t>
wordsOf(const ContainerReader &cr, SectionId id, const std::string &path)
{
    const std::uint64_t len = cr.section(id).rawLen;
    LECA_CHECK(len % sizeof(std::uint64_t) == 0, "corrupt checkpoint ",
               path, ": section ", id, " holds ", len, " bytes");
    std::vector<std::uint64_t> words(len / sizeof(std::uint64_t));
    std::copy_n(cr.payload(id), len,
                reinterpret_cast<std::uint8_t *>(words.data()));
    return words;
}

/**
 * The quantized tensors of a kind-5 checkpoint, one per @p table
 * entry. Every dim, view and payload extent is checked against the
 * section lengths the reader validated, and every scale must be finite
 * and non-negative.
 */
// leca-analyze: cold — checkpoint I/O
std::vector<QuantTensor>
readQuantTensors(const ContainerReader &cr,
                 const std::vector<std::uint64_t> &table,
                 const std::string &path)
{
    const std::uint64_t nscales = cr.section(kScales).rawLen;
    const std::uint64_t ncodes = cr.section(kCodes).rawLen;
    std::uint64_t scales_at = 0, codes_at = 0;
    std::vector<QuantTensor> qts(table.size() / kEntryWords);
    for (std::size_t i = 0; i < qts.size(); ++i) {
        const std::uint64_t *e = table.data() + i * kEntryWords;
        const std::uint64_t ndim = e[0];
        const std::uint64_t rows = e[kMaxRank + 1], cols = e[kMaxRank + 2];
        LECA_CHECK(ndim <= kMaxRank, "corrupt checkpoint ", path,
                   ": quantized tensor rank ", ndim);
        // Every element owns at least one code byte, so the codes
        // section bounds the element count before any product forms.
        std::uint64_t numel = 1;
        for (std::size_t d = 0; d < kMaxRank; ++d) {
            const std::uint64_t extent = e[1 + d];
            LECA_CHECK(d < ndim ? extent > 0 && extent <= ncodes / numel
                                : extent == 0,
                       "corrupt checkpoint ", path,
                       ": quantized tensor dim ", extent);
            numel *= d < ndim ? extent : 1;
        }
        if (ndim == 0) {
            LECA_CHECK(rows == 0 && cols == 0, "corrupt checkpoint ", path,
                       ": empty quantized tensor claims ", rows, "x", cols);
            continue; // not yet converted: round-trips as empty
        }
        LECA_CHECK(rows > 0 && numel % rows == 0 && numel / rows == cols,
                   "corrupt checkpoint ", path, ": quantized tensor view ",
                   rows, "x", cols, " does not cover its ", numel,
                   " elements");
        QuantTensor &qt = qts[i];
        qt.shape.assign(e + 1, e + 1 + ndim);
        qt.rows = static_cast<std::int64_t>(rows);
        qt.cols = static_cast<std::int64_t>(cols);
        qt.nb = quantBlocks(qt.cols);
        const std::uint64_t blocks = rows * static_cast<std::uint64_t>(qt.nb);
        LECA_CHECK(blocks * sizeof(float) <= nscales - scales_at
                       && blocks * kQuantBlock <= ncodes - codes_at,
                   "corrupt checkpoint ", path, ": quantized tensor ", i,
                   " overruns the scales or codes");
        qt.scales.resize(blocks);
        std::copy_n(cr.payload(kScales) + scales_at, blocks * sizeof(float),
                    reinterpret_cast<std::uint8_t *>(qt.scales.data()));
        qt.q.resize(blocks * kQuantBlock);
        std::copy_n(cr.payload(kCodes) + codes_at, qt.q.size(),
                    reinterpret_cast<std::uint8_t *>(qt.q.data()));
        scales_at += blocks * sizeof(float);
        codes_at += qt.q.size();
        for (const float s : qt.scales)
            LECA_CHECK(std::isfinite(s) && s >= 0.0f, "corrupt checkpoint ",
                       path, ": quantized tensor ", i, " has scale ", s);
    }
    LECA_CHECK(scales_at == nscales && codes_at == ncodes,
               "corrupt checkpoint ", path, ": the table covers ", scales_at,
               " of ", nscales, " scale bytes and ", codes_at, " of ", ncodes,
               " code bytes");
    return qts;
}

/**
 * Write @p layer's fp32 params and state, and with @p kind
 * kKindQuantState its quantized tensors, as one container.
 */
void
saveCheckpoint(Layer &layer, const std::string &path, std::uint32_t kind)
{
    std::vector<std::uint8_t> sections[kCodes + 1];
    for (const Tensor *t : tensorsOf(layer)) {
        const std::uint64_t numel = t->numel();
        appendBytes(sections[kSizes], &numel, 1);
        appendBytes(sections[kValues], t->data(), t->numel());
    }
    const bool quantized = kind == kKindQuantState;
    for (const QuantTensor *qt :
         quantized ? layer.quantTensors() : std::vector<QuantTensor *>{}) {
        const std::size_t ndim = qt->empty() ? 0 : qt->shape.size();
        LECA_CHECK(ndim <= kMaxRank, "cannot checkpoint a rank-", ndim,
                   " quantized tensor");
        std::uint64_t entry[kEntryWords] = {ndim};
        std::copy_n(qt->shape.begin(), ndim, entry + 1);
        if (ndim != 0) {
            entry[kMaxRank + 1] = static_cast<std::uint64_t>(qt->rows);
            entry[kMaxRank + 2] = static_cast<std::uint64_t>(qt->cols);
            appendBytes(sections[kScales], qt->scales.data(),
                        qt->scales.size());
            appendBytes(sections[kCodes], qt->q.data(), qt->q.size());
        }
        appendBytes(sections[kQuantTable], entry, kEntryWords);
    }
    bitstream::ContainerWriter cw(kind);
    for (std::uint32_t id = 0; id <= (quantized ? kCodes : kValues); ++id) {
        const std::uint64_t len = sections[id].size();
        cw.addSection(id, Coder::Raw, Predictor::None, 0, 0, len,
                      std::move(sections[id]));
    }
    const std::vector<std::uint8_t> bytes = cw.finish();
    std::ofstream os(path, std::ios::binary);
    LECA_CHECK(os.is_open(), "cannot open checkpoint ", path, " for writing");
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.close();
    LECA_CHECK(!os.fail(), "cannot write checkpoint ", path);
}

/**
 * Load a checkpoint of container kind @p kind into @p layer, under the
 * contract of serialize.hh. Every check runs before the first write to
 * the model.
 */
// leca-analyze: cold — checkpoint I/O
bool
loadCheckpoint(Layer &layer, const std::string &path, std::uint32_t kind)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return refuse(path, "cannot be opened");
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(is),
                                          std::istreambuf_iterator<char>()};
    std::uint32_t head[2] = {};
    if (bytes.size() >= sizeof(head))
        std::memcpy(head, bytes.data(), sizeof(head));
    if (head[0] == kRetiredMagic || head[0] == kRetiredUnversionedMagic)
        return refuse(path, "is in the retired 'LeCA' format");
    if (head[0] == bitstream::kContainerMagic
        && head[1] != bitstream::kContainerVersion)
        return refuse(path, "has container version ", head[1]);

    const ContainerReader cr = readContainer(bytes, path);
    LECA_CHECK(cr.kind() == kind, "checkpoint ", path, " holds container kind ",
               cr.kind(), ", expected kind ", kind);
    const bool quantized = kind == kKindQuantState;
    const std::size_t nsections = (quantized ? kCodes : kValues) + 1;
    LECA_CHECK(cr.sectionCount() == nsections, "corrupt checkpoint ", path,
               ": ", cr.sectionCount(), " sections, expected ", nsections);
    for (std::size_t i = 0; i < nsections; ++i) {
        const bitstream::Section &s = cr.section(i);
        LECA_CHECK(s.id == i && s.coder == Coder::Raw
                       && s.predictor == Predictor::None && s.aux == 0
                       && s.predStride == 0,
                   "corrupt checkpoint ", path, ": section ", i,
                   " is not raw section ", i);
    }

    const std::vector<Tensor *> tensors = tensorsOf(layer);
    const std::vector<std::uint64_t> sizes = wordsOf(cr, kSizes, path);
    if (sizes.size() != tensors.size())
        return refuse(path, "holds ", sizes.size(), " tensors, the model ",
                      tensors.size());
    std::uint64_t floats = 0;
    for (std::size_t i = 0; i < tensors.size(); ++i) {
        if (sizes[i] != tensors[i]->numel())
            return refuse(path, "holds ", sizes[i], " values in tensor ", i,
                          ", the model ", tensors[i]->numel());
        floats += sizes[i];
    }
    const std::uint8_t *values = cr.payload(kValues);
    LECA_CHECK(cr.section(kValues).rawLen == floats * sizeof(float),
               "corrupt checkpoint ", path, ": ", cr.section(kValues).rawLen,
               " value bytes for ", floats, " floats");
    for (std::size_t i = 0; i < floats; ++i) {
        float v;
        std::memcpy(&v, values + i * sizeof(float), sizeof(v));
        LECA_CHECK(std::isfinite(v), "corrupt checkpoint ", path, ": value ",
                   i, " is ", v);
    }

    std::vector<QuantTensor *> qts;
    std::vector<QuantTensor> restored;
    if (quantized) {
        qts = layer.quantTensors();
        const std::vector<std::uint64_t> table =
            wordsOf(cr, kQuantTable, path);
        LECA_CHECK(table.size() % kEntryWords == 0, "corrupt checkpoint ",
                   path, ": quantized-tensor table of ", table.size(),
                   " words");
        if (table.size() / kEntryWords != qts.size())
            return refuse(path, "holds ", table.size() / kEntryWords,
                          " quantized tensors, the model ", qts.size());
        restored = readQuantTensors(cr, table, path);
    }

    for (Tensor *t : tensors) {
        const std::size_t n = t->numel() * sizeof(float);
        std::copy_n(values, n, reinterpret_cast<std::uint8_t *>(t->data()));
        values += n;
    }
    for (std::size_t i = 0; i < qts.size(); ++i)
        *qts[i] = std::move(restored[i]);
    return true;
}

} // namespace

void
saveLayerState(Layer &layer, const std::string &path)
{
    saveCheckpoint(layer, path, bitstream::kKindLayerState);
}

bool
loadLayerState(Layer &layer, const std::string &path)
{
    return loadCheckpoint(layer, path, bitstream::kKindLayerState);
}

void
saveQuantizedState(Layer &layer, const std::string &path)
{
    saveCheckpoint(layer, path, kKindQuantState);
}

bool
loadQuantizedState(Layer &layer, const std::string &path)
{
    return loadCheckpoint(layer, path, kKindQuantState);
}

} // namespace leca
