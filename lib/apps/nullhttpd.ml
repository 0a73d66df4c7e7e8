let cgi_root_symbol = "cgi_root"

let source =
  {|
/* A NULL-HTTPD-shaped server.  The POST path sizes its body buffer as
   Content-Length + 1024 without rejecting negative lengths (the
   bid-5774 bug) and then receives the real body into it. */

char *cgi_root = "/usr/local/httpd/cgi-bin";

void http_error(int s, char *msg) {
  fdprintf(s, "HTTP/1.0 %s\r\n\r\n", msg);
}

void run_cgi(int s, char *prog) {
  char full[256];
  sprintf(full, "%s/%s", cgi_root, prog);
  exec(full);
  fdprintf(s, "HTTP/1.0 200 OK\r\n\r\ncgi output\r\n");
}

void handle_get(int s, char *path) {
  if (strncmp(path, "/cgi-bin/", 9) == 0) {
    run_cgi(s, path + 9);
    return;
  }
  fdprintf(s, "HTTP/1.0 200 OK\r\n\r\nstatic content\r\n");
}

void handle_post(int s, int content_length) {
  /* BUG: negative Content-Length shrinks the allocation */
  char *body = calloc(content_length + 1024, 1);
  if (!body) {
    http_error(s, "500 Internal Server Error");
    return;
  }
  int got = 0;
  int r;
  while ((r = recv(s, body + got, 512, 0)) > 0) {
    got += r;                     /* actual body size, unbounded */
  }
  fdprintf(s, "HTTP/1.0 200 OK\r\n\r\nreceived %d bytes\r\n", got);
  free(body);                     /* unlink of the corrupted neighbour */
}

int main(void) {
  char line[512];
  int ls = socket();
  int c;
  while ((c = accept(ls)) >= 0) {
    if (readline(c, line, 512) <= 0) {
      close(c);
      continue;
    }
    if (strncmp(line, "GET ", 4) == 0) {
      char *path = line + 4;
      char *space = strchr(path, ' ');
      if (space) *space = 0;
      handle_get(c, path);
    } else if (strncmp(line, "POST ", 5) == 0) {
      int content_length = 0;
      while (readline(c, line, 512) > 0) {
        if (line[0] == '\r' || line[0] == 0) break;   /* end of headers */
        if (strncmp(line, "Content-Length: ", 16) == 0) {
          content_length = atoi(line + 16);
        }
      }
      handle_post(c, content_length);
    } else {
      http_error(c, "400 Bad Request");
    }
    close(c);
  }
  return 0;
}
|}

let get_cgi prog = "GET /cgi-bin/" ^ prog ^ " HTTP/1.0\n"

let post_request ~content_length ~body =
  [ Printf.sprintf "POST /upload HTTP/1.0\nContent-Length: %d\n\r\n" content_length; body ]
