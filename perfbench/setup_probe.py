"""What `flowscore run` pays before its first street is classified.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG

Imports the package and loads and validates the scenario's six inputs
through the public loaders. The benchmark times this whole process,
interpreter start included, as `setup_s`.
"""
import sys

from flowscore import cli, geo, indicators, network, qdta, typology


def main(config: str) -> int:
    scenario = cli.load_scenario(config)
    network.load_network(str(scenario.nodes), str(scenario.links))
    typology.load_parcels(str(scenario.parcels))
    indicators.load_schools(str(scenario.schools))
    geo.validate_tracts(geo.load_tracts(str(scenario.tracts)))
    qdta.load_trips(str(scenario.trips))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
