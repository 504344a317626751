"""Reference implementations kept only to check the program against."""
