/**
 * @file
 * canonsim entry point: parse, dispatch, report.
 */

#include <iostream>
#include <string>
#include <vector>

#include "cli/driver.hh"
#include "cli/options.hh"

int
main(int argc, char **argv)
{
    using namespace canon::cli;

    std::vector<std::string> args(argv + 1, argv + argc);
    ParseResult parsed = parseArgs(args);
    if (!parsed.ok) {
        std::cerr << "canonsim: " << parsed.error << "\n\n"
                  << usageText();
        return 2;
    }
    if (parsed.options.showHelp) {
        std::cout << usageText();
        return 0;
    }
    if (parsed.options.listWorkloads) {
        // Rendered from the tables the option grammar reads, so the
        // listing cannot drift from what the engine accepts.
        std::cout << listText();
        return 0;
    }
    return runScenario(parsed.options, std::cout, std::cerr);
}
