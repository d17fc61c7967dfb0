/**
 * @file
 * Reproduces Fig. 13: sensor energy comparison at the paper's 448x448
 * geometry.
 *
 *  (a) absolute per-frame energy of CNV / SD / LR / CS / MS / AGT and
 *      LeCA at CR {4, 6, 8} — LeCA and CNV activity comes from the
 *      actual cycle-level chip simulation, the other sensors from
 *      their architectural activity models;
 *  (b) per-component breakdown normalised to LeCA (CR = 4);
 *  (c) the sensor-energy vs accuracy-loss Pareto on the proxy pipeline;
 *  plus the Sec. 6.3 area summary.
 *
 * Paper reference points: ADC 10.1x and comm 5x below CNV at CR 4;
 * LeCA(CR 8) 6.3x below CNV and 2.2x below CS; CS/MS/AGT cost
 * 11 % / 57 % / 31 % more than LeCA(CR 4).
 */

#include <algorithm>
#include <iostream>

#include "common.hh"
#include "compression/agt.hh"
#include "compression/compressive_sensing.hh"
#include "compression/microshift.hh"
#include "compression/simple_methods.hh"
#include "energy/area.hh"
#include "energy/baseline_activity.hh"
#include "energy/energy_model.hh"
#include "hw/sensor_chip.hh"
#include "hw/weights.hh"
#include "util/check.hh"
#include "util/table.hh"

namespace {

using namespace leca;
using namespace leca::bench;

constexpr int kRawRows = 448, kRawCols = 448;

/** Run the real chip for one frame and return its activity. */
ChipStats
simulateLecaFrame(int nch, double qbits)
{
    ChipConfig cfg;
    cfg.rgbHeight = kRawRows / 2;
    cfg.rgbWidth = kRawCols / 2;
    cfg.qbits = QBits(qbits);
    cfg.monteCarlo = false; // energy depends on activity, not mismatch
    LecaSensorChip chip(cfg);

    Rng rng(5);
    Tensor weights({nch, 3, 2, 2});
    for (std::size_t i = 0; i < weights.numel(); ++i)
        weights[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    chip.loadKernels(flattenKernels(weights, 1.0f));
    chip.resetStats(); // kernel programming is one-off, not per-frame

    SyntheticVision::Config scene_cfg;
    scene_cfg.resolution = kRawRows / 2;
    scene_cfg.seed = 77;
    SyntheticVision gen(scene_cfg);
    Rng img_rng(9);
    const Tensor scene = gen.renderImage(0, img_rng);

    Rng frame_rng(1);
    chip.encodeFrame(scene, PeMode::Ideal, frame_rng, false);
    return chip.stats();
}

/** CNV activity from the real chip's normal (bypass) mode. */
ChipStats
simulateCnvFrame()
{
    ChipConfig cfg;
    cfg.rgbHeight = kRawRows / 2;
    cfg.rgbWidth = kRawCols / 2;
    LecaSensorChip chip(cfg);
    SyntheticVision::Config scene_cfg;
    scene_cfg.resolution = kRawRows / 2;
    scene_cfg.seed = 77;
    SyntheticVision gen(scene_cfg);
    Rng img_rng(9);
    const Tensor scene = gen.renderImage(0, img_rng);
    Rng frame_rng(1);
    chip.normalModeCapture(scene, frame_rng, false);
    return chip.stats();
}

struct EnergyRow
{
    std::string name;
    EnergyBreakdown energy;
    double cr;
};

void
addRow(Table &table, const EnergyRow &row)
{
    table.addRow({row.name, Table::num(row.cr, 1),
                  Table::num(row.energy.pixelNj, 1),
                  Table::num(row.energy.analogPeNj, 1),
                  Table::num(row.energy.adcNj, 1),
                  Table::num(row.energy.sramNj, 1),
                  Table::num(row.energy.commNj, 1),
                  Table::num(row.energy.digitalNj, 1),
                  Table::num(row.energy.totalNj(), 1)});
}

} // namespace

int
main()
{
    using namespace leca;
    EnergyModel model;

    printBanner(std::cout,
                "Fig. 13(a): absolute per-frame sensor energy (nJ), "
                "448x448");

    std::vector<EnergyRow> rows;
    {
        const ChipStats cnv = simulateCnvFrame();
        rows.push_back({"CNV (simulated)", model.fromStats(cnv), 1.0});
    }
    for (const auto &a :
         {sdActivity(kRawRows, kRawCols),
          lrActivity(kRawRows, kRawCols, 2.0),
          csActivity(kRawRows, kRawCols), msActivity(kRawRows, kRawCols),
          agtActivity(kRawRows, kRawCols)}) {
        rows.push_back({a.name, model.fromStats(a.stats, a.extraDigitalPj),
                        a.compressionRatio});
    }
    struct LecaPoint { const char *name; int nch; double qbits; double cr; };
    for (const auto &lp : {LecaPoint{"LeCA CR4 (simulated)", 8, 3.0, 4.0},
                           LecaPoint{"LeCA CR6 (simulated)", 4, 4.0, 6.0},
                           LecaPoint{"LeCA CR8 (simulated)", 4, 3.0, 8.0}}) {
        const ChipStats stats = simulateLecaFrame(lp.nch, lp.qbits);
        rows.push_back({lp.name, model.fromStats(stats), lp.cr});
    }

    Table table({"sensor", "CR", "pixel", "analog PE", "ADC", "SRAM",
                 "comm", "digital", "TOTAL"});
    for (const auto &row : rows)
        addRow(table, row);
    table.print(std::cout);

    // Headline ratios.
    auto total_of = [&](const std::string &name) {
        const auto row = std::find_if(rows.begin(), rows.end(),
                                      [&](const auto &r) {
                                          return r.name.rfind(name, 0) == 0;
                                      });
        LECA_CHECK(row != rows.end(), "row ", name, " missing");
        return row->energy;
    };
    const EnergyBreakdown cnv = total_of("CNV");
    const EnergyBreakdown cs = total_of("CS");
    const EnergyBreakdown ms = total_of("MS");
    const EnergyBreakdown agt = total_of("AGT");
    const EnergyBreakdown leca4 = total_of("LeCA CR4");
    const EnergyBreakdown leca8 = total_of("LeCA CR8");

    std::cout << "\nheadline ratios (paper in parentheses):\n";
    std::cout << "  ADC:   CNV / LeCA(CR4)  = "
              << Table::num(cnv.adcNj / leca4.adcNj, 1) << "x  (10.1x)\n";
    std::cout << "  comm:  CNV / LeCA(CR4)  = "
              << Table::num(cnv.commNj / leca4.commNj, 1) << "x  (5x)\n";
    std::cout << "  total: CNV / LeCA(CR8)  = "
              << Table::num(cnv.totalNj() / leca8.totalNj(), 1)
              << "x  (6.3x)\n";
    std::cout << "  total: CS  / LeCA(CR8)  = "
              << Table::num(cs.totalNj() / leca8.totalNj(), 1)
              << "x  (2.2x)\n";
    std::cout << "  total: CS  / LeCA(CR4)  = "
              << Table::num(cs.totalNj() / leca4.totalNj(), 2)
              << "x  (1.11x)\n";
    std::cout << "  total: MS  / LeCA(CR4)  = "
              << Table::num(ms.totalNj() / leca4.totalNj(), 2)
              << "x  (1.57x)\n";
    std::cout << "  total: AGT / LeCA(CR4)  = "
              << Table::num(agt.totalNj() / leca4.totalNj(), 2)
              << "x  (1.31x)\n";

    printBanner(std::cout,
                "Fig. 13(b): energy normalised to LeCA (CR = 4)");
    Table norm({"sensor", "pixel", "analog PE", "ADC", "SRAM", "comm",
                "digital", "TOTAL"});
    const double base = leca4.totalNj();
    for (const auto &row : rows) {
        norm.addRow({row.name, Table::num(row.energy.pixelNj / base, 3),
                     Table::num(row.energy.analogPeNj / base, 3),
                     Table::num(row.energy.adcNj / base, 3),
                     Table::num(row.energy.sramNj / base, 3),
                     Table::num(row.energy.commNj / base, 3),
                     Table::num(row.energy.digitalNj / base, 3),
                     Table::num(row.energy.totalNj() / base, 3)});
    }
    norm.print(std::cout);

    printBanner(std::cout,
                "Fig. 13(c): sensor energy vs accuracy loss (proxy)");
    {
        using namespace leca::bench;
        Harness harness = makeHarness(Scale::Proxy);
        const double base_acc = harness.backboneAccuracy;
        Table pareto({"sensor", "energy (nJ)", "accuracy", "loss"});
        auto add_pareto = [&](const std::string &name, double energy,
                              double acc) {
            pareto.addRow({name, Table::num(energy, 1),
                           Table::pct(100 * acc),
                           Table::pct(100 * (base_acc - acc))});
        };
        {
            ConventionalSensor m;
            add_pareto("CNV", cnv.totalNj(),
                       baselineAccuracy(harness, m));
        }
        {
            SpatialDownsample m(2, 2);
            add_pareto("SD", total_of("SD").totalNj(),
                       baselineAccuracy(harness, m));
        }
        {
            LowResQuantizer m{QBits(2.0)};
            add_pareto("LR", total_of("LR").totalNj(),
                       baselineAccuracy(harness, m));
        }
        {
            CompressiveSensing m(4);
            add_pareto("CS", cs.totalNj(), baselineAccuracy(harness, m));
        }
        {
            Microshift m(2);
            add_pareto("MS*", ms.totalNj(), baselineAccuracy(harness, m));
        }
        {
            AccumGradientThreshold m;
            m.calibrate(harness.val.images, 4.0);
            add_pareto("AGT", agt.totalNj(),
                       baselineAccuracy(harness, m));
        }
        for (const auto &lp :
             {LecaPoint{"LeCA CR4", 8, 3.0, 4.0},
              LecaPoint{"LeCA CR6", 4, 4.0, 6.0},
              LecaPoint{"LeCA CR8", 4, 3.0, 8.0}}) {
            auto pipeline =
                makePipeline(harness, benchConfig(lp.nch, lp.qbits));
            const double acc =
                trainLeca(*pipeline, harness, EncoderModality::Soft,
                          standardTrainOptions(Scale::Proxy));
            add_pareto(lp.name, total_of(lp.name).totalNj(), acc);
        }
        pareto.print(std::cout);
        std::cout << "(*MS compression is image dependent, 4x..5x)\n";
    }

    printBanner(std::cout, "Sec. 6.3: area summary");
    AreaModel area;
    std::cout << "pixel array:      " << Table::num(area.pixelArrayMm2(), 2)
              << " mm^2 (paper: 5 mm^2 at 5 um pitch)\n";
    std::cout << "LeCA encoder:     " << Table::num(area.encoderMm2(), 2)
              << " mm^2 of which ADC " << Table::num(area.adcArrayMm2, 2)
              << " mm^2 (paper: 1.1 / 0.85 mm^2)\n";
    std::cout << "area overhead:    "
              << Table::pct(100 * area.overheadFraction(), 1)
              << " (paper: <5%)\n";
    return 0;
}
