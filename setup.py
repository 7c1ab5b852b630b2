from setuptools import find_packages, setup

setup(
    name="tetris-repro",
    version="0.2.0",
    description=(
        "Reproduction of an ISCA'24 VQA compiler study: Tetris-style "
        "Pauli-block compilation, baselines, and a parallel batch-"
        "compilation service with content-addressed result caching."
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    install_requires=[
        "numpy",
        "networkx",
    ],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ]
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Physics",
    ],
)
