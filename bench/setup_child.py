"""Time one fresh set-up: import randschrod, then load, validate and resolve
a config and build its model.  Prints {"setup_s": seconds} as JSON.

    python3 bench/setup_child.py SRC_DIR CONFIG_FILE
"""

import json
import sys
import time


def main(src: str, config_path: str) -> None:
    started = time.perf_counter()
    sys.path.insert(0, src)
    from randschrod.config import build_model, load_config, resolve_config, validate_config

    config = load_config(config_path)
    errors = validate_config(config)
    if errors:
        raise SystemExit(f"config error: {errors}")
    build_model(resolve_config(config))
    print(json.dumps({"setup_s": time.perf_counter() - started}))


if __name__ == "__main__":
    main(*sys.argv[1:])
