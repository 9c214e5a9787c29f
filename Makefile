.PHONY: install test bench fuzz chaos guard examples clean

install:
	pip install -e . || python setup.py develop

test:
	python -m pytest tests/ -q

# Regenerates every committed number: the 7 BENCH_*.json and the
# benchmarks/results/*.txt tables.  CI deletes them all first, runs this,
# and fails on any `git diff` or untracked file.  One experiment:
# python -m pytest benchmarks/bench_<id>.py --benchmark-only -q
bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest benchmarks/ --benchmark-only -q

fuzz:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro fuzz --budget 50 --seed 0

chaos:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro chaos --seed 0 \
		--trace chaos-trace.json

guard:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro guard

examples:
	for f in examples/*.py; do echo "== $$f"; \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
