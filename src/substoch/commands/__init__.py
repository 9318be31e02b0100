"""One module per subcommand, each with run(args), imported by cli.main."""
