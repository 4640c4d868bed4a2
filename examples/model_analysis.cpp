/**
 * @file
 * Model analysis: walk one real model's layer list across all five
 * architectures and report per-layer cycles plus whole-model
 * energy-delay product -- a working miniature of Figure 14's
 * methodology, exposed as an API example.
 */

#include <iostream>

#include "bench/bench_util.hh"

using namespace canon;
using namespace canon::bench;

int
main()
{
    setQuiet(true);
    ArchSuite suite;
    EnergyModel energy;

    const auto model = llama8bMlp(0.7);
    std::cout << "Model: " << model.name << " ("
              << model.layers.size() << " layers)\n";

    Table t("Per-layer cycles (millions)");
    std::vector<std::string> header = {"Layer", "Shape"};
    for (const auto &a : archOrder())
        header.push_back(archLabel(a));
    t.header(header);

    std::uint64_t seed = 900;
    for (const auto &layer : model.layers) {
        const auto r = suite.run(layer, seed++);
        std::vector<std::string> row = {
            layer.name, std::to_string(layer.m) + "x" +
                            std::to_string(layer.k) + "x" +
                            std::to_string(layer.n)};
        for (const auto &a : archOrder()) {
            auto it = r.find(a);
            row.push_back(
                it == r.end()
                    ? "X"
                    : Table::fmt(static_cast<double>(
                                     it->second.cycles) /
                                     1e6,
                                 1));
        }
        t.addRow(row);
    }
    t.print();

    const auto whole = suite.model(model, 950);
    Table e("Whole-model EDP normalized to Canon (lower is better)");
    std::vector<std::string> eh;
    for (const auto &a : archOrder())
        eh.push_back(archLabel(a));
    e.header(eh);
    const double canon_edp =
        energy.evaluate(whole.at("canon")).edp();
    std::vector<std::string> row;
    for (const auto &a : archOrder()) {
        auto it = whole.find(a);
        row.push_back(it == whole.end()
                          ? "X"
                          : Table::fmt(energy.evaluate(it->second)
                                               .edp() /
                                           canon_edp,
                                       2));
    }
    e.addRow(row);
    e.print();
    return 0;
}
