from dyncross.cli import main

if __name__ == "__main__":  # importing the package's modules runs nothing
    raise SystemExit(main())
