# Convenience targets for the repro DSMS.

.PHONY: install test bench examples all

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	PYTHONPATH=src python -m pytest -x -q

bench:
	PYTHONPATH=src python benchmarks/ledger/run.py --smoke

examples:
	@for f in examples/*.py; do echo "== $$f =="; python $$f || exit 1; done

all: test bench
